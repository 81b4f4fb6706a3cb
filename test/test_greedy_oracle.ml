(* greedyMatch on the in-place matching list of bitset rows against the
   persistent implementation it replaced, kept below as the reference.
   Both run compMaxCard's outer loop on the same instance and must agree
   round by round on sigma and the conflict set I (as exact lists), and on
   the budget steps used. The loop hands the same list to every round
   after removing I from it, so a Greedy.run that consumed its caller's
   list would show up as a diverging later round. *)

open Helpers
module G = Phom_graph.Generators
module Budget = Phom_graph.Budget
module Labelsim = Phom_sim.Labelsim
module ML = Phom.Matching_list
module Greedy = Phom.Greedy
module CMC = Phom.Comp_max_card
module Opts = Phom.Opts
module Int_map = ML.Int_map

(* ---- the reference: the persistent Int_set/Int_map matching list, its
   trim and its greedyMatch loop, as they were before the in-place list ---- *)
module Ref = struct
  module Int_set = Set.Make (Int)

  type entry = { good : Int_set.t; minus : Int_set.t }
  type t = entry Int_map.t

  let of_candidates cands =
    let h = ref Int_map.empty in
    Array.iteri
      (fun v row ->
        if Array.length row > 0 then
          h :=
            Int_map.add v
              { good = Int_set.of_list (Array.to_list row); minus = Int_set.empty }
              !h)
      cands;
    !h

  let nodes h = List.map fst (Int_map.bindings h)

  let put h v entry =
    if Int_set.is_empty entry.good && Int_set.is_empty entry.minus then
      Int_map.remove v h
    else Int_map.add v entry h

  let set_good h v good =
    match Int_map.find_opt v h with
    | None ->
        if Int_set.is_empty good then h
        else Int_map.add v { good; minus = Int_set.empty } h
    | Some e -> put h v { e with good }

  let move_to_minus h v bad =
    match Int_map.find_opt v h with
    | None -> h
    | Some e ->
        let moved, kept = Int_set.partition bad e.good in
        if Int_set.is_empty moved then h
        else put h v { good = kept; minus = Int_set.union e.minus moved }

  let pick h =
    Int_map.fold
      (fun v e best ->
        let c = Int_set.cardinal e.good in
        if c = 0 then best
        else
          match best with
          | Some (_, g) when Int_set.cardinal g >= c -> best
          | _ -> Some (v, e.good))
      h None

  let split h =
    Int_map.fold
      (fun v e (hplus, hminus) ->
        let hplus =
          if Int_set.is_empty e.good then hplus
          else Int_map.add v { good = e.good; minus = Int_set.empty } hplus
        in
        let hminus =
          if Int_set.is_empty e.minus then hminus
          else Int_map.add v { good = e.minus; minus = Int_set.empty } hminus
        in
        (hplus, hminus))
      h (Int_map.empty, Int_map.empty)

  let remove_pairs h pairs =
    List.fold_left
      (fun h (v, u) ->
        match Int_map.find_opt v h with
        | None -> h
        | Some e ->
            put h v
              { good = Int_set.remove u e.good; minus = Int_set.remove u e.minus })
      h pairs

  let trim ~g1 ~tc2 ~v ~u h =
    let h =
      Array.fold_left
        (fun h v' -> move_to_minus h v' (fun u' -> not (BM.get tc2 u' u)))
        h (D.pred g1 v)
    in
    Array.fold_left
      (fun h v' -> move_to_minus h v' (fun u' -> not (BM.get tc2 u u')))
      h (D.succ g1 v)

  type sized = { size : int; items : (int * int) list }

  let sized_empty = { size = 0; items = [] }
  let cons pair s = { size = s.size + 1; items = pair :: s.items }

  type work = Eval of t * int Int_map.t option | Combine of int * int

  let greedy ~budget ~g1 ~tc2 ~choose_u ~caps h0 =
    let work = ref [ Eval (h0, caps) ] and results = ref [] in
    let push r = results := r :: !results in
    let pop () =
      match !results with
      | r :: rest ->
          results := rest;
          r
      | [] -> assert false
    in
    while !work <> [] do
      match !work with
      | [] -> ()
      | Combine (v, u) :: rest ->
          work := rest;
          let s2, i2 = pop () in
          let s1, i1 = pop () in
          let sigma = if s1.size + 1 >= s2.size then cons (v, u) s1 else s2 in
          let conflict = if i1.size >= i2.size + 1 then i1 else cons (v, u) i2 in
          push (sigma, conflict)
      | Eval (h, caps) :: rest -> (
          work := rest;
          if not (Budget.tick budget) then push (sized_empty, sized_empty)
          else if Int_map.is_empty h then push (sized_empty, sized_empty)
          else
            match pick h with
            | None ->
                let _, hminus = split h in
                work := Eval (hminus, caps) :: !work
            | Some (v, goods) ->
                let u = choose_u v goods in
                let h = move_to_minus h v (fun u' -> u' <> u) in
                let h = set_good h v Int_set.empty in
                let h = trim ~g1 ~tc2 ~v ~u h in
                let h, caps_plus =
                  match caps with
                  | None -> (h, None)
                  | Some c ->
                      let remaining =
                        Option.value ~default:1 (Int_map.find_opt u c) - 1
                      in
                      let c' = Some (Int_map.add u remaining c) in
                      if remaining > 0 then (h, c')
                      else
                        ( List.fold_left
                            (fun h v' ->
                              if v' = v then h
                              else move_to_minus h v' (fun u' -> u' = u))
                            h (nodes h),
                          c' )
                in
                let hplus, hminus = split h in
                work :=
                  Eval (hplus, caps_plus) :: Eval (hminus, caps) :: Combine (v, u)
                  :: !work)
    done;
    match !results with
    | [ (sigma, conflict) ] -> (Mapping.normalize sigma.items, conflict.items)
    | _ -> assert false

  let choose_u (t : Instance.t) = function
    | `First -> fun _ goods -> Int_set.min_elt goods
    | `Best_sim ->
        fun v goods ->
          let best = ref (-1) and best_sim = ref neg_infinity in
          Int_set.iter
            (fun u ->
              let s = Simmat.get t.mat v u in
              if s > !best_sim then begin
                best := u;
                best_sim := s
              end)
            goods;
          !best

  (* compMaxCard's main loop; every round's (sigma, I) plus the best *)
  let rounds ~budget ~caps ~pick (t : Instance.t) =
    let choose_u = choose_u t pick in
    let rec loop h acc best =
      if Int_map.cardinal h <= Mapping.size best || Budget.exhausted budget then
        (List.rev acc, best)
      else begin
        let sigma, conflict =
          greedy ~budget ~g1:t.g1 ~tc2:t.tc2 ~choose_u ~caps h
        in
        let acc = (sigma, conflict) :: acc in
        let best = if Mapping.size sigma > Mapping.size best then sigma else best in
        if conflict = [] then (List.rev acc, best)
        else loop (remove_pairs h conflict) acc best
      end
    in
    loop (of_candidates (Instance.candidates t)) [] []
end

(* the same loop on the in-place list: Comp_max_card.run_on, unrolled so
   every round is visible *)
let rounds ~budget ~caps ~pick (t : Instance.t) =
  let mode = match caps with None -> `Free | Some c -> `Capacitated c in
  let h = ML.of_candidates (ML.universe t) in
  let rec loop acc best =
    if ML.size h <= Mapping.size best || Budget.exhausted budget then
      (List.rev acc, best)
    else begin
      let { Greedy.sigma; conflict } =
        Greedy.run ~budget ~pick ~mode h
      in
      let acc = (sigma, conflict) :: acc in
      let best = if Mapping.size sigma > Mapping.size best then sigma else best in
      if conflict = [] then (List.rev acc, best)
      else begin
        ML.remove_pairs h conflict;
        loop acc best
      end
    end
  in
  loop [] []

(* ---- inputs ---- *)

let fig5_pair ~m ~xi =
  let rng = Random.State.make [| 0xF15; m |] in
  let g1, pool = G.paper_pattern ~rng ~m in
  let g2 = G.paper_data ~rng ~pool ~noise:0.1 g1 in
  let mat = Labelsim.matrix (Labelsim.make ~pool ~seed:m) g1 g2 in
  (Printf.sprintf "fig5 m=%d xi=%.2f" m xi, Instance.make ~g1 ~g2 ~mat ~xi ())

(* pattern and data from one generator, 1-4 labels, loops on some pattern
   nodes (the data side needs cycles to keep their candidates) *)
let random_pair ~dag seed =
  let rng = Random.State.make [| 0xE7; seed |] in
  let nlabels = 1 + (seed mod 4) in
  let labels _ = string_of_int (Random.State.int rng nlabels) in
  let gen n =
    let m = min (2 * n) (n * (n - 1) / 2) in
    if dag then G.random_dag ~rng ~n ~m ~labels else G.erdos_renyi ~rng ~n ~m ~labels
  in
  let g1 = gen (3 + Random.State.int rng 10) in
  let loops =
    List.filter (fun _ -> Random.State.int rng 4 = 0) (List.init (D.n g1) Fun.id)
  in
  let g1 =
    D.make ~labels:(D.labels g1)
      ~edges:(D.edges g1 @ List.map (fun v -> (v, v)) loops)
  in
  let g2 = gen (5 + Random.State.int rng 25) in
  ( Printf.sprintf "%s seed=%d" (if dag then "dag" else "er") seed,
    eq_instance g1 g2 )

(* hub-heavy data graphs under label equality: many candidates per node,
   so the outer loop runs several rounds *)
let pa_pair seed =
  let rng = Random.State.make [| 0xFA; seed |] in
  let nlabels = 2 + (seed mod 3) in
  let labels _ = string_of_int (Random.State.int rng nlabels) in
  let n1 = 6 + Random.State.int rng 9 in
  let g1 = G.erdos_renyi ~rng ~n:n1 ~m:(n1 + Random.State.int rng n1) ~labels in
  let g2 =
    G.preferential_attachment ~rng ~n:(30 + Random.State.int rng 40) ~out:2 ~labels
  in
  (Printf.sprintf "pa seed=%d" seed, eq_instance g1 g2)

(* one label on both sides, so every pattern node's row is all of G2:
   rows of exactly one full word and of two to four words *)
let wide_pair n2 =
  let rng = Random.State.make [| 0x3D; n2 |] in
  let one _ = "x" in
  let n1 = 5 + Random.State.int rng 4 in
  let g1 = G.erdos_renyi ~rng ~n:n1 ~m:(n1 + Random.State.int rng n1) ~labels:one in
  let g2 = G.preferential_attachment ~rng ~n:n2 ~out:2 ~labels:one in
  (Printf.sprintf "wide n2=%d" n2, eq_instance g1 g2)

let fig5_pairs =
  List.concat_map
    (fun m -> List.map (fun xi -> fig5_pair ~m ~xi) [ 0.3; 0.5; 0.75 ])
    [ 8; 14; 23; 37; 60 ]

let random_pairs =
  List.init 12 (random_pair ~dag:false) @ List.init 12 (random_pair ~dag:true)

let pa_pairs = List.init 10 pa_pair
let wide_pairs = List.map wide_pair [ 63; 64; 130; 190 ]

(* every G2 node occurring as a candidate gets capacity 1 *)
let unit_caps (t : Instance.t) =
  Array.fold_left
    (Array.fold_left (fun c u -> Int_map.add u 1 c))
    Int_map.empty (Instance.candidates t)

(* the three modes: free, capacity 1, and the compressed graph's clique
   sizes; each with compMaxCard's own call for the final comparison *)
let modes (t : Instance.t) =
  let c = Opts.compress t in
  [
    ("free", t, None, fun ~budget pick h -> CMC.run_on ~budget ~pick h);
    ( "caps=1",
      t,
      Some (unit_caps t),
      fun ~budget pick h -> CMC.run_on ~injective:true ~budget ~pick h );
    ( "compressed",
      c.Opts.sub,
      Some c.Opts.capacities,
      fun ~budget pick h ->
        CMC.run_on ~injective:true ~capacities:c.Opts.capacities ~budget ~pick h
    );
  ]

let caps_grid = [ None; Some 1; Some 5; Some 37; Some 200 ]

let budget_of = function
  | None -> Budget.unlimited ()
  | Some n -> Budget.create ~steps:n ()

let pairs_t = Alcotest.(list (pair int int))

(* runs every mode x pick x step cap; returns the most rounds seen *)
let check_pair (name, t) =
  List.fold_left
    (fun most (mode, (t' : Instance.t), caps, run_on) ->
      List.fold_left
        (fun most pick ->
          List.fold_left
            (fun most cap ->
              let label =
                Printf.sprintf "%s %s %s steps=%s" name mode
                  (match pick with `First -> "first" | `Best_sim -> "best")
                  (match cap with None -> "none" | Some n -> string_of_int n)
              in
              let b_ref = budget_of cap and b_new = budget_of cap in
              let want, want_best = Ref.rounds ~budget:b_ref ~caps ~pick t' in
              let got, got_best = rounds ~budget:b_new ~caps ~pick t' in
              Alcotest.(check int) (label ^ ": rounds") (List.length want)
                (List.length got);
              List.iteri
                (fun i ((ws, wi), (gs, gi)) ->
                  let r = Printf.sprintf "%s: round %d" label i in
                  Alcotest.check pairs_t (r ^ " sigma") ws gs;
                  Alcotest.check pairs_t (r ^ " conflict") wi gi)
                (List.combine want got);
              Alcotest.check pairs_t (label ^ ": best") want_best got_best;
              Alcotest.(check int) (label ^ ": steps") (Budget.steps_used b_ref)
                (Budget.steps_used b_new);
              let b_cmc = budget_of cap in
              let m =
                run_on ~budget:b_cmc pick (ML.of_candidates (ML.universe t'))
              in
              Alcotest.check pairs_t (label ^ ": compMaxCard") want_best m;
              Alcotest.(check int) (label ^ ": compMaxCard steps")
                (Budget.steps_used b_ref) (Budget.steps_used b_cmc);
              max most (List.length got))
            most caps_grid)
        most [ `Best_sim; `First ])
    0 (modes t)

let test_fig5 () = List.iter (fun p -> ignore (check_pair p)) fig5_pairs
let test_random () = List.iter (fun p -> ignore (check_pair p)) random_pairs

let test_pa () =
  let most = List.fold_left (fun m p -> max m (check_pair p)) 0 (pa_pairs @ wide_pairs) in
  (* the aliasing check needs lists that survive a round *)
  Alcotest.(check bool) "some outer loop runs several rounds" true (most >= 3)

let test_row_widths () =
  (* rows must span one word exactly and several words somewhere *)
  let widths =
    List.concat_map
      (fun (_, t) -> Array.to_list (Array.map Array.length (Instance.candidates t)))
      (fig5_pairs @ random_pairs @ pa_pairs @ wide_pairs)
  in
  Alcotest.(check bool) "a row of exactly 63" true (List.mem 63 widths);
  Alcotest.(check bool) "a row of 64 or more" true (List.exists (fun k -> k >= 64) widths)

let test_compressed_capacities () =
  (* the compressed mode must exercise capacities above 1 somewhere *)
  let big =
    List.exists
      (fun (_, t) ->
        Int_map.exists (fun _ c -> c > 1) (Opts.compress t).Opts.capacities)
      (fig5_pairs @ random_pairs @ pa_pairs)
  in
  Alcotest.(check bool) "a clique of size > 1" true big

let suite =
  [
    ( "greedy oracle",
      [
        Alcotest.test_case "fig5 pairs" `Quick test_fig5;
        Alcotest.test_case "er and dag pairs" `Quick test_random;
        Alcotest.test_case "preferential attachment" `Quick test_pa;
        Alcotest.test_case "row widths" `Quick test_row_widths;
        Alcotest.test_case "compressed capacities" `Quick
          test_compressed_capacities;
      ] );
  ]
