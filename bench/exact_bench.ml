(* Exact-path bench, gated through Bench_gate.

   Seeded product-graph instances (the paper generator's pattern/data pairs
   pushed through the Theorem-5.1 compatibility-graph construction) solved
   to proven optimality by the legacy colouring B&B and the bitset MWC
   engine. The guards: across the tracked cardinality instances the MWC
   engine takes at least 10x fewer B&B steps than the legacy engine and
   strictly less total wall-time, both engines agree on every optimum, and
   every solve proves optimality within [step_cap]. With --check-against,
   every tracked step and wall-time row of the checked-in
   bench/baselines/BENCH_exact.json is held to Bench_gate's baseline rules;
   refresh it by copying a report over it when an intentional engine change
   moves the numbers. *)

module D = Phom_graph.Digraph
module G = Phom_graph.Generators
module Budget = Phom_graph.Budget
module Labelsim = Phom_sim.Labelsim
module Ungraph = Phom_wis.Ungraph
module Wis = Phom_wis.Wis

type result = {
  name : string;
  engine : string;  (** "legacy" or "mwc" *)
  nodes : int;
  edges : int;
  optimum : float;
  steps : int;
  seconds : float;
  proven : bool;  (** optimality proven within [step_cap] *)
}

(* a tracked instance: the product graph of a seeded Erdős–Rényi
   pattern/data pair over a small label pool with graded similarities.
   Unlike the paper generator's pattern⊆data pairs (where greedy finds the
   planted optimum immediately and both engines terminate in a handful of
   nodes), independent pattern/data graphs leave many incomparable
   near-optimal mappings — the regime where the branch and bound actually
   branches. *)
let product_instance ~seed ~n1 ~m1 ~n2 ~m2 ~nlabels ~xi ~injective ~weighted =
  let rng = Random.State.make [| seed; n1; n2; (if injective then 1 else 0) |] in
  let labels = [| "A"; "B"; "C"; "D"; "E" |] in
  let lbl _ = labels.(Random.State.int rng (min nlabels (Array.length labels))) in
  let g1 = G.erdos_renyi ~rng ~n:n1 ~m:m1 ~labels:lbl in
  (* the data graph is a DAG: acyclic reachability keeps tc2 sparse enough
     that no full embedding of the (cyclic, dense) pattern exists, so the
     optimum sits strictly below n1 and neither engine closes at the root *)
  let g2 = G.random_dag ~rng ~n:n2 ~m:m2 ~labels:lbl in
  (* graded similarity: same-label pairs clear xi at one of four grades,
     cross-label pairs rarely do — candidate rows stay wide enough to force
     real search *)
  let mat =
    Phom_sim.Simmat.of_fun ~n1 ~n2 (fun v u ->
        let base = if D.label g1 v = D.label g2 u then 0.55 else 0.2 in
        min 1. (base +. (0.15 *. float_of_int (Random.State.int rng 4))))
  in
  let t = Phom.Instance.make ~g1 ~g2 ~mat ~xi () in
  let weights =
    if weighted then
      Some (Array.init (D.n g1) (fun i -> 0.5 +. (float_of_int (i mod 4) /. 4.)))
    else None
  in
  (Phom_wis.Product.build ~injective ?weights ~g1:t.Phom.Instance.g1
     ~tc2:t.Phom.Instance.tc2 ~mat:t.Phom.Instance.mat ~xi:t.Phom.Instance.xi
     ())
    .Phom_wis.Product.graph

(* the tracked sizes: large enough that the legacy engine sweats for its
   proof, small enough that it still reaches optimality in CI minutes *)
let tracked ~seed =
  [
    ( "card-12x20",
      product_instance ~seed ~n1:12 ~m1:34 ~n2:20 ~m2:44 ~nlabels:2 ~xi:0.5
        ~injective:false ~weighted:false );
    ( "card-14x20",
      product_instance ~seed ~n1:14 ~m1:60 ~n2:20 ~m2:34 ~nlabels:1 ~xi:0.5
        ~injective:false ~weighted:false );
    ( "card11-12x20",
      product_instance ~seed ~n1:12 ~m1:36 ~n2:20 ~m2:42 ~nlabels:2 ~xi:0.5
        ~injective:true ~weighted:false );
    ( "card11-13x22",
      product_instance ~seed ~n1:13 ~m1:42 ~n2:22 ~m2:46 ~nlabels:2 ~xi:0.5
        ~injective:true ~weighted:false );
    ( "card11-14x20",
      product_instance ~seed ~n1:14 ~m1:64 ~n2:20 ~m2:32 ~nlabels:1 ~xi:0.5
        ~injective:true ~weighted:false );
    ( "card11-16x22",
      product_instance ~seed ~n1:16 ~m1:84 ~n2:22 ~m2:36 ~nlabels:1 ~xi:0.5
        ~injective:true ~weighted:false );
  ]

let weighted_tracked ~seed =
  [
    ( "sim-14x20",
      product_instance ~seed ~n1:14 ~m1:60 ~n2:20 ~m2:34 ~nlabels:1 ~xi:0.5
        ~injective:false ~weighted:true );
    ( "sim11-16x22",
      product_instance ~seed ~n1:16 ~m1:84 ~n2:22 ~m2:36 ~nlabels:1 ~xi:0.5
        ~injective:true ~weighted:true );
  ]

(* generous safety net: every tracked instance finishes well under 10⁵
   steps on either engine; the cap only exists so a future regression
   fails loudly instead of hanging CI *)
let step_cap = 20_000_000

let run_engine name engine g solve =
  Printf.eprintf "bench exact: %-12s %-6s %3d nodes %5d edges...\n%!" name
    engine (Ungraph.n g) (Ungraph.nb_edges g);
  let b = Budget.create ~steps:step_cap () in
  let (value, status), seconds = Util.timed (fun () -> solve b g) in
  {
    name;
    engine;
    nodes = Ungraph.n g;
    edges = Ungraph.nb_edges g;
    optimum = value;
    steps = Budget.steps_used b;
    seconds;
    proven = status = Budget.Complete;
  }

let legacy_solve b g =
  let c, status = Wis.exact_max_clique_legacy ~budget:b g in
  (float_of_int (List.length c), status)

let mwc_solve ?pool b g =
  let c, status = Wis.exact_max_clique ?pool ~budget:b g in
  (float_of_int (List.length c), status)

let mwc_weight_solve ?pool b g =
  let _, w, status = Wis.exact_max_weight_clique ?pool ~budget:b g in
  (w, status)

let rows_of r =
  let row metric unit value =
    {
      Bench_gate.suite = "exact";
      instance = r.name ^ "/" ^ r.engine;
      metric;
      unit;
      value;
    }
  in
  [
    row "nodes" "nodes" (float_of_int r.nodes);
    row "edges" "edges" (float_of_int r.edges);
    row "optimum" "objective" r.optimum;
    row "steps" "steps" (float_of_int r.steps);
    row "seconds" "s" r.seconds;
  ]

let run ~seed ?pool ~out ?check () =
  Util.heading "Exact path: legacy colouring B&B vs bitset MWC engine";
  (* cardinality instances: both engines, same optimum required *)
  let pairs =
    List.map
      (fun (name, g) ->
        let legacy = run_engine name "legacy" g legacy_solve in
        (legacy, run_engine name "mwc" g (mwc_solve ?pool)))
      (tracked ~seed)
  in
  (* weighted instances: the new engine only (the legacy engine has no
     weight objective); tracked by the baseline all the same *)
  let weighted =
    List.map
      (fun (name, g) -> run_engine name "mwc" g (mwc_weight_solve ?pool))
      (weighted_tracked ~seed)
  in
  let results = List.concat_map (fun (l, m) -> [ l; m ]) pairs @ weighted in
  let total f side =
    List.fold_left (fun acc p -> acc +. f (side p)) 0. pairs
  in
  let steps r = float_of_int r.steps and seconds r = r.seconds in
  let guards =
    [
      Bench_gate.at_least "mwc step speedup over legacy"
        (total steps fst /. total steps snd)
        10.;
      Bench_gate.below "mwc total time < legacy's (s)"
        (total seconds snd) (total seconds fst);
      Bench_gate.at_most "largest legacy-mwc optimum gap"
        (List.fold_left
           (fun acc (l, m) -> Float.max acc (Float.abs (l.optimum -. m.optimum)))
           0. pairs)
        0.;
      Bench_gate.none "solves not proven within the step cap"
        (fun r -> not r.proven)
        results;
    ]
  in
  Bench_gate.finish ~suite:"exact" ~seed ~out ?baseline:check
    (List.concat_map rows_of results)
    guards
