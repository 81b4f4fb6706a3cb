(* The tree-decomposition DP against ground truth: brute-force enumeration
   over the candidate rows gives the exact count of total valid mappings
   and the exact (injective) optima on ~200 seeded small instances; the DP
   must agree on every one. Plus anytime trip-grid coverage, Api-level
   agreement with the B&B, and hand-checked counting semantics. *)

open Helpers
module G = Phom_graph.Generators
module Budget = Phom_graph.Budget
module Exact = Phom.Exact
module Dp = Phom.Dp
module Api = Phom.Api

let labels = [| "A"; "B"; "C" |]

(* deterministic instance [i]: a low-treewidth-leaning pattern of 2-6 nodes
   (tree / series-parallel / 2-tree / ER round-robin), a data graph of up
   to 8 nodes, a graded similarity matrix at xi = 0.5 *)
let instance_of_seed i =
  let rng = Random.State.make [| 0xd9a; 0x3c7; i |] in
  let lbl _ = labels.(Random.State.int rng (Array.length labels)) in
  let n1 = 2 + Random.State.int rng 5 in
  let g1 =
    match i mod 4 with
    | 0 -> G.random_tree ~rng ~n:n1 ~labels:lbl
    | 1 -> G.series_parallel ~rng ~n:n1 ~labels:lbl
    | 2 -> G.random_ktree ~rng ~n:n1 ~k:2 ~labels:lbl ()
    | _ ->
        let m = min (Random.State.int rng (2 * n1)) (n1 * (n1 - 1) / 2) in
        G.erdos_renyi ~rng ~n:n1 ~m ~labels:lbl
  in
  let n2 = n1 + Random.State.int rng (9 - n1) in
  let g2 =
    let m = min (Random.State.int rng (3 * n2)) (n2 * (n2 - 1) / 2) in
    G.erdos_renyi ~rng ~n:n2 ~m ~labels:lbl
  in
  let mat =
    Simmat.of_fun ~n1 ~n2 (fun _ _ ->
        match Random.State.int rng 10 with
        | 0 | 1 -> 0.5
        | 2 -> 0.65
        | 3 -> 0.8
        | 4 -> 1.0
        | _ -> Random.State.float rng 0.45)
  in
  let weights = Array.init n1 (fun _ -> 0.25 +. Random.State.float rng 0.75) in
  (Instance.make ~g1 ~g2 ~mat ~xi:0.5 (), weights)

(* ground truth by exhaustive enumeration over candidate rows with an
   explicit "unmapped" branch: the count of total valid mappings and the
   four optima (cardinality / similarity, free / injective) *)
type brute = {
  b_count : int;
  b_card : int;
  b_sim : float;
  b_card_inj : int;
  b_sim_inj : float;
}

let brute_force ~weights (t : Instance.t) =
  let n1 = D.n t.g1 in
  let cands = Instance.candidates t in
  let assigned = Array.make n1 (-1) in
  let used = Hashtbl.create 8 in
  let count = ref 0 in
  let card = ref 0 and sim = ref 0. in
  let card_inj = ref 0 and sim_inj = ref 0. in
  let ok v u =
    Array.for_all
      (fun v' -> v' = v || assigned.(v') < 0 || BM.get t.tc2 u assigned.(v'))
      (D.succ t.g1 v)
    && Array.for_all
         (fun v' -> v' = v || assigned.(v') < 0 || BM.get t.tc2 assigned.(v') u)
         (D.pred t.g1 v)
    && ((not (D.has_edge t.g1 v v)) || BM.get t.tc2 u u)
  in
  let rec go v mapped value inj =
    if v = n1 then begin
      if mapped = n1 then incr count;
      if mapped > !card then card := mapped;
      if value > !sim then sim := value;
      if inj then begin
        if mapped > !card_inj then card_inj := mapped;
        if value > !sim_inj then sim_inj := value
      end
    end
    else begin
      go (v + 1) mapped value inj;
      Array.iter
        (fun u ->
          if ok v u then begin
            assigned.(v) <- u;
            let dup = Hashtbl.mem used u in
            Hashtbl.add used u ();
            go (v + 1) (mapped + 1)
              (value +. (weights.(v) *. Simmat.get t.mat v u))
              (inj && not dup);
            Hashtbl.remove used u;
            assigned.(v) <- (-1)
          end)
        cands.(v)
    end
  in
  go 0 0 0. true;
  {
    b_count = !count;
    b_card = !card;
    b_sim = !sim;
    b_card_inj = !card_inj;
    b_sim_inj = !sim_inj;
  }

let check_complete name (o : Exact.outcome) =
  Alcotest.(check bool) (name ^ " complete") true (o.Exact.status = Budget.Complete)

(* unnormalized similarity value, matching the brute-force accumulator *)
let raw_sim ~weights ~mat m =
  List.fold_left (fun acc (v, u) -> acc +. (weights.(v) *. Simmat.get mat v u)) 0. m

let check_instance i =
  let t, weights = instance_of_seed i in
  let b = brute_force ~weights t in
  let name s = Printf.sprintf "seed %d: %s" i s in
  (* counting *)
  let c = Dp.count t in
  Alcotest.(check int) (name "count") b.b_count c.Dp.count;
  Alcotest.(check bool) (name "count exact") true c.Dp.exact;
  Alcotest.(check bool)
    (name "count complete")
    true
    (c.Dp.status = Budget.Complete);
  (* free optima *)
  let oc = Dp.solve ~objective:Exact.Cardinality t in
  check_complete (name "card") oc;
  Alcotest.(check bool)
    (name "card mapping valid")
    true
    (Instance.is_valid t oc.Exact.mapping);
  Alcotest.(check int) (name "card optimum") b.b_card (Mapping.size oc.Exact.mapping);
  let os = Dp.solve ~objective:(Exact.Similarity weights) t in
  check_complete (name "sim") os;
  Alcotest.(check bool)
    (name "sim mapping valid")
    true
    (Instance.is_valid t os.Exact.mapping);
  Alcotest.(check (float 1e-6))
    (name "sim optimum")
    b.b_sim
    (raw_sim ~weights ~mat:t.Instance.mat os.Exact.mapping);
  (* injective optima: DP relaxation + B&B fallback *)
  let oci = Dp.solve ~injective:true ~objective:Exact.Cardinality t in
  check_complete (name "card inj") oci;
  Alcotest.(check bool)
    (name "card inj valid")
    true
    (Instance.is_valid ~injective:true t oci.Exact.mapping);
  Alcotest.(check int)
    (name "card inj optimum")
    b.b_card_inj
    (Mapping.size oci.Exact.mapping);
  let osi = Dp.solve ~injective:true ~objective:(Exact.Similarity weights) t in
  check_complete (name "sim inj") osi;
  Alcotest.(check bool)
    (name "sim inj valid")
    true
    (Instance.is_valid ~injective:true t osi.Exact.mapping);
  Alcotest.(check (float 1e-6))
    (name "sim inj optimum")
    b.b_sim_inj
    (raw_sim ~weights ~mat:t.Instance.mat osi.Exact.mapping)

let chunk lo hi () =
  for i = lo to hi - 1 do
    check_instance i
  done

let test_trip_grid () =
  let t, _ = instance_of_seed 1 in
  let full = Budget.create ~steps:1_000_000 () in
  let o = Dp.solve ~budget:full ~objective:Exact.Cardinality t in
  check_complete "full run" o;
  let solve_rows = Budget.steps_used full in
  Alcotest.(check bool) "dp did work" true (solve_rows > 0);
  let grid total f =
    let step = max 1 (total / 13) in
    let k = ref 0 in
    while !k < total do
      f !k;
      k := !k + step
    done
  in
  grid solve_rows (fun k ->
      let b = Budget.trip_after k in
      let o = Dp.solve ~budget:b ~objective:Exact.Cardinality t in
      (match o.Exact.status with
      | Budget.Exhausted _ -> ()
      | Budget.Complete -> Alcotest.failf "trip %d: solve completed" k);
      Alcotest.(check bool)
        (Printf.sprintf "trip %d mapping valid" k)
        true
        (Instance.is_valid t o.Exact.mapping));
  let cfull = Budget.create ~steps:1_000_000 () in
  let c = Dp.count ~budget:cfull t in
  Alcotest.(check bool) "count complete" true (c.Dp.status = Budget.Complete);
  let count_rows = Budget.steps_used cfull in
  grid count_rows (fun k ->
      let c = Dp.count ~budget:(Budget.trip_after k) t in
      (match c.Dp.status with
      | Budget.Exhausted _ -> ()
      | Budget.Complete -> Alcotest.failf "trip %d: count completed" k);
      Alcotest.(check bool)
        (Printf.sprintf "trip %d count withdrawn" k)
        true
        (c.Dp.count = 0 && not c.Dp.exact))

(* [Dp_exact]'s table pass before flat rows, kept as the reference: one
   polymorphic [Hashtbl] per nice-tree node keyed by the bag assignment as
   an [int array] of data nodes, one tick a row at the same places, and a
   traceback that re-probes each forget's child table for the first
   extension, unmapped then the candidates in row order, that reaches the
   kept value. The flat pass must agree with it in mapping, value, count,
   exactness, status and steps at every step cap. *)
module Reference = struct
  module T = Phom_treedecomp.Treedecomp
  module Dpx = Phom_treedecomp.Dp_exact

  type intro_plan = {
    iv : int;
    ipos : int;
    self_loop : bool;
    cons : (int * bool * bool) array;
  }

  type plan =
    | P_leaf
    | P_intro of intro_plan
    | P_forget of { fpos : int; fv : int }
    | P_join

  let pos_of v bag =
    let p = ref (-1) in
    Array.iteri (fun i x -> if x = v then p := i) bag;
    !p

  let plans g1 (nt : T.nice) =
    Array.init
      (Array.length nt.T.nkind)
      (fun i ->
        match nt.T.nkind.(i) with
        | T.Leaf -> P_leaf
        | T.Join -> P_join
        | T.Forget v ->
            let cbag = nt.T.nbags.(nt.T.nchildren.(i).(0)) in
            P_forget { fpos = pos_of v cbag; fv = v }
        | T.Introduce v ->
            let cbag = nt.T.nbags.(nt.T.nchildren.(i).(0)) in
            let cons = ref [] in
            Array.iteri
              (fun j w ->
                let fwd = D.has_edge g1 v w and bwd = D.has_edge g1 w v in
                if fwd || bwd then cons := (j, fwd, bwd) :: !cons)
              cbag;
            P_intro
              {
                iv = v;
                ipos = pos_of v nt.T.nbags.(i);
                self_loop = D.has_edge g1 v v;
                cons = Array.of_list (List.rev !cons);
              })

  let key_insert key pos u =
    let n = Array.length key in
    let out = Array.make (n + 1) u in
    Array.blit key 0 out 0 pos;
    Array.blit key pos out (pos + 1) (n - pos);
    out

  let key_remove key pos =
    let n = Array.length key in
    let out = Array.make (n - 1) 0 in
    Array.blit key 0 out 0 pos;
    Array.blit key (pos + 1) out pos (n - 1 - pos);
    out

  let compatible tc2 (p : intro_plan) key u =
    ((not p.self_loop) || BM.get tc2 u u)
    && Array.for_all
         (fun (j, fwd, bwd) ->
           let u' = key.(j) in
           u' < 0
           || (((not fwd) || BM.get tc2 u u') && ((not bwd) || BM.get tc2 u' u)))
         p.cons

  type 'a ops = {
    unmapped : bool;
    leaf : 'a;
    gain : int -> int -> 'a -> 'a;
    merge : 'a -> 'a -> 'a;
    join : int array -> int array -> 'a -> 'a -> 'a;
  }

  let tables ops budget ~tc2 ~cands np (nt : T.nice) =
    let tables = Array.make (Array.length np) (Hashtbl.create 0) in
    Array.iteri
      (fun node plan ->
        let row () = Budget.tick_exn budget in
        let child k = tables.(nt.T.nchildren.(node).(k)) in
        let t =
          match plan with
          | P_leaf ->
              let t = Hashtbl.create 1 in
              row ();
              Hashtbl.replace t [||] ops.leaf;
              t
          | P_intro p ->
              let ct = child 0 in
              let t = Hashtbl.create (2 * (Hashtbl.length ct + 1)) in
              let emit key x u =
                row ();
                Hashtbl.replace t (key_insert key p.ipos u) (ops.gain p.iv u x)
              in
              Hashtbl.iter
                (fun key x ->
                  if ops.unmapped then emit key x (-1);
                  Array.iter
                    (fun u -> if compatible tc2 p key u then emit key x u)
                    cands.(p.iv))
                ct;
              t
          | P_forget { fpos; _ } ->
              let ct = child 0 in
              let t = Hashtbl.create (Hashtbl.length ct + 1) in
              Hashtbl.iter
                (fun key x ->
                  row ();
                  let key' = key_remove key fpos in
                  match Hashtbl.find_opt t key' with
                  | None -> Hashtbl.replace t key' x
                  | Some kept ->
                      let m = ops.merge kept x in
                      if m != kept then Hashtbl.replace t key' m)
                ct;
              t
          | P_join ->
              let t1 = child 0 and t2 = child 1 in
              let bag = nt.T.nbags.(node) in
              let t = Hashtbl.create (Hashtbl.length t1 + 1) in
              Hashtbl.iter
                (fun key x1 ->
                  row ();
                  match Hashtbl.find_opt t2 key with
                  | None -> ()
                  | Some x2 -> Hashtbl.replace t key (ops.join bag key x1 x2))
                t1;
              t
        in
        tables.(node) <- t)
      np;
    tables

  let solve ~budget ~g1 ~tc2 ~cands ~pair_value (nt : T.nice) =
    let np = plans g1 nt in
    let ops =
      {
        unmapped = true;
        leaf = 0.;
        gain = (fun v u x -> x +. if u < 0 then 0. else pair_value v u);
        merge = (fun kept x -> if kept >= x then kept else x);
        join =
          (fun bag key x1 x2 ->
            let bagv = ref 0. in
            Array.iteri
              (fun j u -> if u >= 0 then bagv := !bagv +. pair_value bag.(j) u)
              key;
            x1 +. x2 -. !bagv);
      }
    in
    match tables ops budget ~tc2 ~cands np nt with
    | exception Budget.Exhausted_budget ->
        { Dpx.mapping = []; value = 0.; status = Budget.status budget }
    | tables ->
        let value = Hashtbl.find tables.(nt.T.root) [||] in
        let chosen = Hashtbl.create 16 in
        let rec walk node key =
          match np.(node) with
          | P_leaf -> ()
          | P_intro p ->
              let u = key.(p.ipos) in
              if u >= 0 then Hashtbl.replace chosen p.iv u;
              walk nt.T.nchildren.(node).(0) (key_remove key p.ipos)
          | P_forget { fpos; fv } ->
              let target = Hashtbl.find tables.(node) key in
              let ct = tables.(nt.T.nchildren.(node).(0)) in
              let hit = ref (-2) in
              let try_ext u =
                if !hit = -2 then
                  match Hashtbl.find_opt ct (key_insert key fpos u) with
                  | Some v when v = target -> hit := u
                  | _ -> ()
              in
              try_ext (-1);
              Array.iter try_ext cands.(fv);
              assert (!hit > -2);
              walk nt.T.nchildren.(node).(0) (key_insert key fpos !hit)
          | P_join ->
              walk nt.T.nchildren.(node).(0) key;
              walk nt.T.nchildren.(node).(1) key
        in
        walk nt.T.root [||];
        let mapping =
          List.sort compare (Hashtbl.fold (fun v u acc -> (v, u) :: acc) chosen [])
        in
        { Dpx.mapping; value; status = Budget.Complete }

  let add_sat sat a b =
    if a > max_int - b then begin
      sat := true;
      max_int
    end
    else a + b

  let mul_sat sat a b =
    if a > 0 && b > max_int / a then begin
      sat := true;
      max_int
    end
    else a * b

  let count ~budget ~g1 ~tc2 ~cands (nt : T.nice) =
    let sat = ref false in
    let ops =
      {
        unmapped = false;
        leaf = 1;
        gain = (fun _ _ c -> c);
        merge = add_sat sat;
        join = (fun _ _ c1 c2 -> mul_sat sat c1 c2);
      }
    in
    match tables ops budget ~tc2 ~cands (plans g1 nt) nt with
    | exception Budget.Exhausted_budget ->
        { Dpx.count = 0; exact = false; status = Budget.status budget }
    | tables ->
        let count =
          match Hashtbl.find_opt tables.(nt.T.root) [||] with
          | Some c -> c
          | None -> 0
        in
        { Dpx.count; exact = not !sat; status = Budget.Complete }
end

(* seeded instances for the reference differential, on graded
   similarities so candidate rows are not in data-node order:
   join-heavy forests, series-parallel and partial 2-/3-tree patterns,
   a ring with a self-loop and 2-cycles against a cyclic graph, and
   exact-tier's 24-node DAGs; [`Count_only] marks a width-5 pattern, whose
   6-position bags only [count] is asked to fill *)
let reference_instance i =
  let st = Random.State.make [| 0x7ab; i |] in
  let int lo hi = lo + Random.State.int st (hi - lo + 1) in
  let lbl _ = labels.(Random.State.int st (Array.length labels)) in
  let dag n m = G.random_dag ~rng:st ~n ~m:(min m (n * (n - 1) / 2)) ~labels:lbl in
  let forest () =
    (* two or three trees side by side: empty-bag joins at the root, and
       bushy trees join inside *)
    let parts =
      List.init (int 2 3) (fun _ -> G.random_tree ~rng:st ~n:(int 1 4) ~labels:lbl)
    in
    let labels =
      Array.concat (List.map (fun g -> Array.init (D.n g) (D.label g)) parts)
    in
    let _, edges =
      List.fold_left
        (fun (base, acc) g ->
          let shifted = List.map (fun (a, b) -> (base + a, base + b)) (D.edges g) in
          (base + D.n g, shifted @ acc))
        (0, []) parts
    in
    D.make ~labels ~edges
  in
  let g1, g2, calls =
    match i mod 6 with
    | 0 -> (forest (), dag (int 6 10) (int 8 16), `Both)
    | 1 ->
        ( G.series_parallel ~rng:st ~n:(int 4 7) ~labels:lbl,
          dag (int 6 10) (int 8 18),
          `Both )
    | 2 ->
        ( G.random_ktree ~rng:st ~n:(int 4 6) ~k:(int 2 3) ~keep:0.8 ~labels:lbl (),
          G.erdos_renyi ~rng:st ~n:(int 5 8) ~m:(int 6 14) ~labels:lbl,
          `Both )
    | 3 ->
        let n1 = int 3 4 in
        let ring = List.init n1 (fun k -> (k, (k + 1) mod n1)) in
        ( D.make ~labels:(Array.init n1 lbl) ~edges:((0, 0) :: (1, 0) :: ring),
          G.erdos_renyi ~rng:st ~n:(int 5 8) ~m:(int 8 16) ~labels:lbl,
          `Both )
    | 4 ->
        ( (if Random.State.bool st then G.random_tree ~rng:st ~n:(int 5 7) ~labels:lbl
           else G.series_parallel ~rng:st ~n:(int 5 6) ~labels:lbl),
          G.random_dag ~rng:st ~n:24 ~m:52 ~labels:lbl,
          `Both )
    | _ ->
        ( G.random_ktree ~rng:st ~n:(int 6 7) ~k:5 ~labels:lbl (),
          dag (int 6 8) (int 10 20),
          `Count_only )
  in
  let mat =
    Simmat.of_fun ~n1:(D.n g1) ~n2:(D.n g2) (fun v u ->
        let base = if D.label g1 v = D.label g2 u then 0.55 else 0.25 in
        Float.min 1. (base +. (0.15 *. float_of_int (Random.State.int st 4))))
  in
  let weights = Array.init (D.n g1) (fun v -> 0.5 +. (float_of_int (v mod 4) /. 4.)) in
  (Instance.make ~g1 ~g2 ~mat ~xi:0.5 (), weights, calls)

(* one more family: a tree whose last nodes take every node of a
   127–135-node DAG, so their rows, and the masks over them, span three
   words, while the first nodes take about one node in twenty *)
let several_word_instance i =
  let st = Random.State.make [| 0x7ac; i |] in
  let int lo hi = lo + Random.State.int st (hi - lo + 1) in
  let lbl _ = labels.(Random.State.int st (Array.length labels)) in
  let narrow = int 2 3 and n2 = int 127 135 in
  let n1 = narrow + int 1 2 in
  let g1 = G.random_tree ~rng:st ~n:n1 ~labels:lbl in
  let g2 = G.random_dag ~rng:st ~n:n2 ~m:(int (2 * n2) (4 * n2)) ~labels:lbl in
  let mat =
    Simmat.of_fun ~n1 ~n2 (fun v _ ->
        if v >= narrow then 0.5 +. (0.1 *. float_of_int (Random.State.int st 5))
        else if Random.State.int st 20 = 0 then 0.8
        else 0.1)
  in
  let weights = Array.init n1 (fun v -> 0.5 +. (float_of_int (v mod 4) /. 4.)) in
  (Instance.make ~g1 ~g2 ~mat ~xi:0.5 (), weights, `Both)

let test_reference () =
  let module Dpx = Phom_treedecomp.Dp_exact in
  let module Td = Phom_treedecomp.Treedecomp in
  let wide = ref 0 in
  for i = 0 to 77 do
    let t, weights, calls =
      if i < 72 then reference_instance i else several_word_instance i
    in
    let g1 = t.Instance.g1 and tc2 = t.Instance.tc2 in
    let cands = Instance.candidates t in
    let nt = Td.nice (Td.compute g1) in
    if Array.exists (fun b -> Array.length b >= 6) nt.Td.nbags then incr wide;
    (* [run cap f]: [f]'s answer and the steps it used, on a fresh token *)
    let run cap f =
      let budget =
        match cap with None -> Budget.unlimited () | Some s -> Budget.create ~steps:s ()
      in
      let r = f budget in
      (r, Budget.steps_used budget)
    in
    (* values compare by their bits ([%h]) through [show] *)
    let agree what show flat reference =
      let rows = snd (run None reference) in
      List.iter
        (fun cap ->
          let a = show (run cap flat) and b = show (run cap reference) in
          if a <> b then
            Alcotest.failf "seed %d %s at cap %s: %s, reference %s" i what
              (match cap with None -> "none" | Some s -> string_of_int s)
              a b)
        ([ None; Some 0; Some 1; Some 10; Some 100 ]
        @ [ Some (rows - 1); Some rows; Some (rows + 1) ])
    in
    let status = function
      | Budget.Complete -> "complete"
      | Budget.Exhausted Budget.Steps -> "exhausted (steps)"
      | Budget.Exhausted Budget.Deadline -> "exhausted (deadline)"
      | Budget.Exhausted Budget.Cancelled -> "exhausted (cancelled)"
    in
    let show_solve ((o : Dpx.outcome), steps) =
      Printf.sprintf "%s value %h steps %d %s"
        (String.concat " "
           (List.map (fun (v, u) -> Printf.sprintf "%d>%d" v u) o.Dpx.mapping))
        o.Dpx.value steps (status o.Dpx.status)
    in
    let solve pair_value =
      agree "solve" show_solve
        (fun budget -> Dpx.solve ~budget ~g1 ~tc2 ~cands ~pair_value nt)
        (fun budget -> Reference.solve ~budget ~g1 ~tc2 ~cands ~pair_value nt)
    in
    if calls = `Both then begin
      solve (fun _ _ -> 1.);
      solve (fun v u -> weights.(v) *. Simmat.get t.Instance.mat v u)
    end;
    agree "count"
      (fun ((c : Dpx.count_outcome), steps) ->
        Printf.sprintf "count %d exact %b steps %d %s" c.Dpx.count c.Dpx.exact steps
          (status c.Dpx.status))
      (fun budget -> Dpx.count ~budget ~g1 ~tc2 ~cands nt)
      (fun budget -> Reference.count ~budget ~g1 ~tc2 ~cands nt)
  done;
  Alcotest.(check bool) "some bags have 6 positions" true (!wide > 0)

let problems = [ Api.CPH; Api.CPH11; Api.SPH; Api.SPH11 ]

let test_api_agreement () =
  for i = 0 to 19 do
    let t, weights = instance_of_seed i in
    List.iter
      (fun problem ->
        let name s =
          Printf.sprintf "seed %d %s: %s" i (Api.problem_name problem) s
        in
        let dp = Api.solve_within ~algorithm:Api.Dp_td ~weights problem t in
        (* max_width -1 keeps the legacy B&B honestly un-routed *)
        let bb =
          Api.solve_within ~algorithm:Api.Exact_bb ~max_width:(-1) ~weights
            problem t
        in
        (* default max_width: these narrow patterns ride the routed path *)
        let routed = Api.solve_within ~algorithm:Api.Exact_bb ~weights problem t in
        Alcotest.(check bool)
          (name "dp valid")
          true
          (Instance.is_valid ~injective:(Api.injective problem) t dp.Api.mapping);
        Alcotest.(check (float 1e-6)) (name "dp = b&b") bb.Api.quality dp.Api.quality;
        Alcotest.(check (float 1e-6))
          (name "routed = b&b")
          bb.Api.quality routed.Api.quality)
      problems
  done

let test_count_vs_decide () =
  for i = 0 to 49 do
    let t, _ = instance_of_seed i in
    let c = Api.count t in
    Alcotest.(check (option bool))
      (Printf.sprintf "seed %d count>0 iff phom" i)
      (Api.decide_phom t)
      (Some (c.Dp.count > 0))
  done

let test_hand_counts () =
  (* the empty pattern has exactly the empty mapping *)
  let t = eq_instance (D.make ~labels:[||] ~edges:[]) (graph [ "a" ] []) in
  Alcotest.(check int) "empty pattern" 1 (Dp.count t).Dp.count;
  (* one node, two matching candidates *)
  let t = eq_instance (graph [ "a" ] []) (graph [ "a"; "a"; "b" ] []) in
  Alcotest.(check int) "two candidates" 2 (Dp.count t).Dp.count;
  (* a -> b with two valid sources for a *)
  let t =
    eq_instance
      (graph [ "a"; "b" ] [ (0, 1) ])
      (graph [ "a"; "a"; "b" ] [ (0, 2); (1, 2) ])
  in
  Alcotest.(check int) "two paths" 2 (Dp.count t).Dp.count;
  (* a forest of two isolated a's over three a's: 3 x 3 *)
  let t = eq_instance (graph [ "a"; "a" ] []) (graph [ "a"; "a"; "a" ] []) in
  Alcotest.(check int) "independent roots" 9 (Dp.count t).Dp.count;
  (* unmatchable node kills every total mapping *)
  let t = eq_instance (graph [ "z" ] []) (graph [ "a" ] []) in
  Alcotest.(check int) "empty candidate row" 0 (Dp.count t).Dp.count;
  (* self-loops need a tc2 self-witness *)
  let looped = graph [ "a" ] [ (0, 0) ] in
  Alcotest.(check int)
    "self-loop unmatched"
    0
    (Dp.count (eq_instance looped (graph [ "a" ] []))).Dp.count;
  Alcotest.(check int)
    "self-loop matched"
    1
    (Dp.count (eq_instance looped looped)).Dp.count

let test_saturation () =
  (* 25 isolated pattern nodes with 40 candidates each: 40^25 total
     mappings overflow 63-bit ints, so the count clamps and drops [exact] *)
  let g1 = D.make ~labels:(Array.make 25 "a") ~edges:[] in
  let g2 = D.make ~labels:(Array.make 40 "a") ~edges:[] in
  let c = Dp.count (eq_instance g1 g2) in
  Alcotest.(check int) "saturates" max_int c.Dp.count;
  Alcotest.(check bool) "inexact" false c.Dp.exact;
  Alcotest.(check bool) "still complete" true (c.Dp.status = Budget.Complete)

let suite =
  let chunks = 5 and per = 40 in
  [
    ( "dp exact",
      List.init chunks (fun c ->
          let lo = c * per and hi = (c + 1) * per in
          Alcotest.test_case
            (Printf.sprintf "brute-force cross-check, seeds %d-%d" lo (hi - 1))
            `Slow (chunk lo hi))
      @ [
          Alcotest.test_case "anytime trip grid" `Quick test_trip_grid;
          Alcotest.test_case "api agreement" `Slow test_api_agreement;
          Alcotest.test_case "count iff decide" `Slow test_count_vs_decide;
          Alcotest.test_case "hand-checked counts" `Quick test_hand_counts;
          Alcotest.test_case "saturating count" `Quick test_saturation;
          Alcotest.test_case "flat tables = hashtable reference" `Quick
            test_reference;
        ] );
  ]
