(* Tree-decomposition DP bench, gated through Bench_gate.

   Seeded low-treewidth instances — tree and series-parallel patterns
   against graded-similarity DAG data graphs — solved to proven optimality
   by both exact paths: the Theorem-5.1 product-graph reduction into the
   bitset MWC engine, and the tree-decomposition DP the width router picks
   on narrow patterns. The guards: across the tracked instances the DP
   takes at least 2x fewer budget steps (DP table rows vs B&B search nodes)
   than the MWC engine — the whole point of routing tree-like patterns away
   from the clique solver — the two agree on every optimum, and every solve
   completes within [step_cap]. With --check-against, every tracked step
   and wall-time row of bench/baselines/BENCH_dp.json is held to
   Bench_gate's baseline rules, exactly like `bench exact`. *)

module D = Phom_graph.Digraph
module G = Phom_graph.Generators
module Budget = Phom_graph.Budget
module Simmat = Phom_sim.Simmat
module Ungraph = Phom_wis.Ungraph
module Wis = Phom_wis.Wis
module Mapping = Phom.Mapping

type result = {
  name : string;
  engine : string;  (** "dp" or "mwc" *)
  nodes : int;  (** pattern nodes (the DP's input scale) *)
  edges : int;
  optimum : float;
  steps : int;
  seconds : float;
  proven : bool;  (** completed within [step_cap] *)
}

(* a tracked instance: a seeded low-treewidth pattern (tree or
   series-parallel) against a DAG data graph under graded similarities.
   Wide candidate rows make the product graph big and clique-heavy while
   the DP's tables stay polynomial — the regime the router exists for. *)
let low_tw_instance ~seed ~kind ~n1 ~n2 ~m2 ~xi ~weighted =
  let rng = Random.State.make [| seed; n1; n2; (match kind with `Tree -> 0 | `Sp -> 1) |] in
  let labels = [| "A"; "B"; "C" |] in
  let lbl _ = labels.(Random.State.int rng (Array.length labels)) in
  let g1 =
    match kind with
    | `Tree -> G.random_tree ~rng ~n:n1 ~labels:lbl
    | `Sp -> G.series_parallel ~rng ~n:n1 ~labels:lbl
  in
  let g2 = G.random_dag ~rng ~n:n2 ~m:m2 ~labels:lbl in
  let mat =
    Simmat.of_fun ~n1 ~n2 (fun v u ->
        let base = if D.label g1 v = D.label g2 u then 0.55 else 0.25 in
        min 1. (base +. (0.15 *. float_of_int (Random.State.int rng 4))))
  in
  let t = Phom.Instance.make ~g1 ~g2 ~mat ~xi () in
  let weights =
    if weighted then
      Some (Array.init n1 (fun i -> 0.5 +. (float_of_int (i mod 4) /. 4.)))
    else None
  in
  (t, weights)

let tracked ~seed =
  [
    ("tree-16x24", low_tw_instance ~seed ~kind:`Tree ~n1:16 ~n2:24 ~m2:52 ~xi:0.5 ~weighted:false);
    ("tree-20x26", low_tw_instance ~seed ~kind:`Tree ~n1:20 ~n2:26 ~m2:58 ~xi:0.5 ~weighted:false);
    ("sp-14x24", low_tw_instance ~seed ~kind:`Sp ~n1:14 ~n2:24 ~m2:52 ~xi:0.5 ~weighted:false);
    ("sp-16x26", low_tw_instance ~seed ~kind:`Sp ~n1:16 ~n2:26 ~m2:56 ~xi:0.5 ~weighted:false);
    (* the weighted proof is much harder for the clique engine, so the
       weighted rows stay small enough that it still closes under the cap *)
    ("sim-tree-12x20", low_tw_instance ~seed ~kind:`Tree ~n1:12 ~n2:20 ~m2:44 ~xi:0.5 ~weighted:true);
    ("sim-sp-10x20", low_tw_instance ~seed ~kind:`Sp ~n1:10 ~n2:20 ~m2:44 ~xi:0.5 ~weighted:true);
  ]

(* safety net only: every tracked instance finishes in far fewer steps on
   both engines; the cap turns a future regression into a loud failure
   instead of a hung CI job *)
let step_cap = 50_000_000

let raw_sim ~weights ~mat m =
  List.fold_left (fun acc (v, u) -> acc +. (weights.(v) *. Simmat.get mat v u)) 0. m

let run_dp ?pool name (t : Phom.Instance.t) weights =
  Printf.eprintf "bench dp: %-16s %-4s %3d pattern nodes...\n%!" name "dp"
    (D.n t.Phom.Instance.g1);
  let b = Budget.create ~steps:step_cap () in
  let objective =
    match weights with
    | None -> Phom.Exact.Cardinality
    | Some w -> Phom.Exact.Similarity w
  in
  let r, seconds =
    Util.timed (fun () -> Phom.Dp.solve ~budget:b ?pool ~objective t)
  in
  let optimum =
    match weights with
    | None -> float_of_int (Mapping.size r.Phom.Exact.mapping)
    | Some w -> raw_sim ~weights:w ~mat:t.Phom.Instance.mat r.Phom.Exact.mapping
  in
  {
    name;
    engine = "dp";
    nodes = D.n t.Phom.Instance.g1;
    edges = D.nb_edges t.Phom.Instance.g1;
    seconds;
    steps = Budget.steps_used b;
    optimum;
    proven = r.Phom.Exact.status = Budget.Complete;
  }

let run_mwc ?pool name (t : Phom.Instance.t) weights =
  Printf.eprintf "bench dp: %-16s %-4s %3d pattern nodes...\n%!" name "mwc"
    (D.n t.Phom.Instance.g1);
  let p =
    Phom_wis.Product.build ~injective:false ?weights ~g1:t.Phom.Instance.g1
      ~tc2:t.Phom.Instance.tc2 ~mat:t.Phom.Instance.mat ~xi:t.Phom.Instance.xi
      ()
  in
  let g = p.Phom_wis.Product.graph in
  let b = Budget.create ~steps:step_cap () in
  let (optimum, status), seconds =
    Util.timed (fun () ->
        match weights with
        | None ->
            let c, status = Wis.exact_max_clique ?pool ~budget:b g in
            (float_of_int (List.length c), status)
        | Some _ ->
            let _, w, status = Wis.exact_max_weight_clique ?pool ~budget:b g in
            (w, status))
  in
  {
    name;
    engine = "mwc";
    nodes = D.n t.Phom.Instance.g1;
    edges = D.nb_edges t.Phom.Instance.g1;
    seconds;
    steps = Budget.steps_used b;
    optimum;
    proven = status = Budget.Complete;
  }

let rows_of r =
  let row metric unit value =
    {
      Bench_gate.suite = "dp";
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
  Util.heading "Low-treewidth patterns: tree-decomposition DP vs MWC engine";
  let pairs =
    List.map
      (fun (name, (t, weights)) ->
        let dp = run_dp ?pool name t weights in
        (dp, run_mwc ?pool name t weights))
      (tracked ~seed)
  in
  let results = List.concat_map (fun (d, m) -> [ d; m ]) pairs in
  let total_steps side =
    List.fold_left (fun acc p -> acc +. float_of_int (side p).steps) 0. pairs
  in
  let guards =
    [
      (* the router's reason to exist *)
      Bench_gate.at_least "dp step speedup over mwc"
        (total_steps snd /. total_steps fst)
        2.;
      Bench_gate.at_most "largest dp-mwc optimum gap"
        (List.fold_left
           (fun acc (d, m) -> Float.max acc (Float.abs (d.optimum -. m.optimum)))
           0. pairs)
        1e-6;
      Bench_gate.none "solves not complete within the step cap"
        (fun r -> not r.proven)
        results;
    ]
  in
  Bench_gate.finish ~suite:"dp" ~seed ~out ?baseline:check
    (List.concat_map rows_of results)
    guards
