(* The bitset MWC engine vs its references: the legacy colouring B&B on
   cardinality, exhaustive subset search on weights, and the anytime
   contract under tripped budgets. *)
module U = Phom_wis.Ungraph
module Mwc = Phom_wis.Mwc
module Wis = Phom_wis.Wis
module Budget = Phom_graph.Budget

let random_graph rng ~n ~p ~max_w =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float rng 1.0 < p then edges := (u, v) :: !edges
    done
  done;
  let weights =
    Array.init n (fun _ -> float_of_int (1 + Random.State.int rng max_w))
  in
  U.create ~weights n !edges

let clique_weight g c = List.fold_left (fun acc v -> acc +. U.weight g v) 0. c

(* 200 seeded instances: the new engine and the legacy B&B must prove the
   same maximum cardinality (the witness clique may differ — optima are not
   unique — so we compare sizes and validate the witness) *)
let test_agrees_with_legacy () =
  let rng = Random.State.make [| 71; 2010 |] in
  for i = 1 to 200 do
    let n = 4 + Random.State.int rng 40 in
    let p = 0.2 +. Random.State.float rng 0.6 in
    let g = random_graph rng ~n ~p ~max_w:1 in
    let legacy, legacy_status = Wis.exact_max_clique_legacy g in
    let r = Mwc.solve_cardinality g in
    let name fmt = Printf.sprintf "instance %d (n=%d): %s" i n fmt in
    Alcotest.(check bool) (name "legacy complete") true
      (legacy_status = Budget.Complete);
    Alcotest.(check bool) (name "mwc complete") true
      (r.Mwc.status = Budget.Complete);
    Alcotest.(check bool) (name "mwc clique valid") true
      (U.is_clique g r.Mwc.clique);
    Alcotest.(check int) (name "same optimum")
      (List.length legacy)
      (List.length r.Mwc.clique);
    Alcotest.(check (float 1e-9)) (name "weight = size")
      (float_of_int (List.length r.Mwc.clique))
      r.Mwc.weight
  done

(* weighted optima against exhaustive subset search on small graphs:
   integer weights keep the float sums exact *)
let test_weighted_vs_brute_force () =
  let rng = Random.State.make [| 72; 2010 |] in
  for i = 1 to 60 do
    let n = 3 + Random.State.int rng 10 in
    let p = 0.2 +. Random.State.float rng 0.6 in
    let g = random_graph rng ~n ~p ~max_w:9 in
    let best = ref 0. in
    for mask = 1 to (1 lsl n) - 1 do
      let members =
        List.filter (fun v -> mask land (1 lsl v) <> 0) (List.init n Fun.id)
      in
      if U.is_clique g members then
        best := Float.max !best (clique_weight g members)
    done;
    let r = Mwc.solve g in
    let name fmt = Printf.sprintf "instance %d (n=%d): %s" i n fmt in
    Alcotest.(check bool) (name "complete") true (r.Mwc.status = Budget.Complete);
    Alcotest.(check bool) (name "clique valid") true
      (U.is_clique g r.Mwc.clique);
    Alcotest.(check (float 1e-9)) (name "weight consistent")
      (clique_weight g r.Mwc.clique)
      r.Mwc.weight;
    Alcotest.(check (float 1e-9)) (name "optimal weight") !best r.Mwc.weight
  done;
  (* past brute force: six 70–100-node graphs, unit and integer weights,
     still complete with a valid clique of consistent weight *)
  let rng = Random.State.make [| 73; 2010 |] in
  for i = 1 to 6 do
    let n = 70 + Random.State.int rng 30 in
    let p = 0.3 +. Random.State.float rng 0.4 in
    let max_w = if i mod 2 = 0 then 9 else 1 in
    let g = random_graph rng ~n ~p ~max_w in
    let r = Mwc.solve g in
    let name fmt = Printf.sprintf "large instance %d (n=%d): %s" i n fmt in
    Alcotest.(check bool) (name "complete") true (r.Mwc.status = Budget.Complete);
    Alcotest.(check bool) (name "clique valid") true
      (U.is_clique g r.Mwc.clique);
    Alcotest.(check (float 1e-9)) (name "weight consistent")
      (clique_weight g r.Mwc.clique)
      r.Mwc.weight
  done

(* the anytime contract across a grid of budget trips: every answer is a
   valid clique with a consistent weight, a tripped run says Exhausted, and
   more budget never yields a lighter answer (the engine is deterministic,
   so a longer run explores a superset of a shorter one) *)
let test_anytime_trip_grid () =
  let rng = Random.State.make [| 74; 2010 |] in
  let g = random_graph rng ~n:60 ~p:0.5 ~max_w:7 in
  let prev = ref 0. in
  List.iter
    (fun steps ->
      let budget = Budget.create ~steps () in
      let r = Mwc.solve ~budget g in
      let name fmt = Printf.sprintf "steps=%d: %s" steps fmt in
      Alcotest.(check bool) (name "clique valid") true
        (U.is_clique g r.Mwc.clique);
      Alcotest.(check (float 1e-9)) (name "weight consistent")
        (clique_weight g r.Mwc.clique)
        r.Mwc.weight;
      Alcotest.(check bool) (name "status matches budget") true
        (r.Mwc.status = Budget.status budget);
      Alcotest.(check bool) (name "monotone in budget") true
        (r.Mwc.weight >= !prev);
      prev := r.Mwc.weight)
    [ 1; 2; 5; 20; 100; 1_000; 50_000; 10_000_000 ];
  (* the largest allowance must prove optimality *)
  let r = Mwc.solve ~budget:(Budget.create ~steps:10_000_000 ()) g in
  Alcotest.(check bool) "full budget completes" true
    (r.Mwc.status = Budget.Complete)

let test_trivial_graphs () =
  let empty = U.create 0 [] in
  let r = Mwc.solve empty in
  Alcotest.(check (list int)) "empty graph" [] r.Mwc.clique;
  let singleton = U.create ~weights:[| 3.5 |] 1 [] in
  let r = Mwc.solve singleton in
  Alcotest.(check (list int)) "singleton clique" [ 0 ] r.Mwc.clique;
  Alcotest.(check (float 1e-9)) "singleton weight" 3.5 r.Mwc.weight;
  (* edgeless: the heaviest vertex alone *)
  let e4 = U.create ~weights:[| 1.; 4.; 2.; 3. |] 4 [] in
  let r = Mwc.solve e4 in
  Alcotest.(check (list int)) "edgeless picks heaviest" [ 1 ] r.Mwc.clique

let suite =
  [
    ( "mwc",
      [
        Alcotest.test_case "trivial graphs" `Quick test_trivial_graphs;
        Alcotest.test_case "agrees with legacy B&B on 200 instances" `Quick
          test_agrees_with_legacy;
        Alcotest.test_case "weighted optimum vs brute force" `Quick
          test_weighted_vs_brute_force;
        Alcotest.test_case "anytime validity across budget trips" `Quick
          test_anytime_trip_grid;
      ] );
  ]
