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
        ] );
  ]
