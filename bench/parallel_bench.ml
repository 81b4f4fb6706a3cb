(* Parallel-runtime smoke bench: sequential vs --jobs N wall-clock on the
   two workloads the domain pool accelerates end to end —

   - component fan-out: a pattern made of many weakly connected components
     solved under [Api.solve_within ~partition:true], one component per
     domain;
   - web matcher: per-version match jobs of [Matcher.accuracy] spread
     across domains.

   The speedups are reported rows, not a guard: pool wins depend on the
   machine's shape. The guard is that on both workloads the parallel run
   returns the same answer as the sequential one. *)

module D = Phom_graph.Digraph
module G = Phom_graph.Generators
module Labelsim = Phom_sim.Labelsim
module Api = Phom.Api
module Pool = Phom_parallel.Pool
module Dataset = Phom_web.Dataset
module Matcher = Phom_web.Matcher

type result = {
  name : string;
  seq_seconds : float;
  par_seconds : float;
  equal_output : bool;
}

let disjoint_union gs =
  let labels =
    Array.concat (List.map (fun g -> Array.init (D.n g) (D.label g)) gs)
  in
  let _, edges =
    List.fold_left
      (fun (off, acc) g ->
        let es = List.map (fun (v, w) -> (v + off, w + off)) (D.edges g) in
        (off + D.n g, List.rev_append es acc))
      (0, []) gs
  in
  D.make ~labels ~edges

(* [components] disjoint pattern/data pairs over one shared label pool: the
   union pattern's weakly connected components are exactly the pieces the
   Appendix-B partitioning fans out across the pool *)
let component_workload ~seed ~components ~m () =
  let rng = Random.State.make [| seed |] in
  let g1_0, pool = G.paper_pattern ~rng ~m in
  let fresh_pattern () =
    G.erdos_renyi ~rng ~n:m ~m:(4 * m)
      ~labels:(fun _ -> G.label_name (Random.State.int rng pool.G.nlabels))
  in
  let patterns = g1_0 :: List.init (components - 1) (fun _ -> fresh_pattern ()) in
  let datas = List.map (G.paper_data ~rng ~pool ~noise:0.10) patterns in
  let g1 = disjoint_union patterns and g2 = disjoint_union datas in
  let lsim = Labelsim.make ~pool ~seed in
  let mat = Labelsim.matrix lsim g1 g2 in
  Phom.Instance.make ~g1 ~g2 ~mat ~xi:0.75 ()

let bench_components ~seed ~components ~m pool =
  let t = component_workload ~seed ~components ~m () in
  let solve p () = Api.solve_within ~partition:true ?pool:p Api.CPH t in
  let r_seq, seq_seconds = Util.timed (solve None) in
  let r_par, par_seconds = Util.timed (solve (Some pool)) in
  {
    name = "component-fanout";
    seq_seconds;
    par_seconds;
    equal_output =
      r_seq.Api.quality = r_par.Api.quality
      && r_seq.Api.mapping = r_par.Api.mapping;
  }

let bench_matcher ~seed ~versions pool =
  let rng = Random.State.make [| seed; 1 |] in
  let spec = List.hd (Dataset.sites (Dataset.Reduced 10)) in
  let pattern, later =
    Dataset.archive_skeletons ~rng ~versions ~skeleton:(`Alpha 0.2) spec
  in
  let accuracy p () =
    Matcher.accuracy ?pool:p Matcher.CompMaxCard ~pattern ~versions:later
  in
  let (acc_seq, _), seq_seconds = Util.timed (accuracy None) in
  let (acc_par, _), par_seconds = Util.timed (accuracy (Some pool)) in
  {
    name = "web-matcher";
    seq_seconds;
    par_seconds;
    equal_output = acc_seq = acc_par;
  }

let components = 8
let m = 40
let versions = 11

let run ~jobs ~seed ~out () =
  Util.heading "Parallel runtime: sequential vs domain pool";
  Util.note "jobs %d (recommended for this machine: %d)" jobs
    (Domain.recommended_domain_count ());
  let results =
    Pool.with_pool ~domains:jobs (fun pool ->
        [
          bench_components ~seed ~components ~m pool;
          bench_matcher ~seed ~versions pool;
        ])
  in
  let row instance metric unit value =
    { Bench_gate.suite = "parallel"; instance; metric; unit; value }
  in
  Bench_gate.finish ~suite:"parallel" ~seed ~out
    (List.concat_map
       (fun r ->
         [
           row r.name "sequential" "s" r.seq_seconds;
           row r.name "pool" "s" r.par_seconds;
           row r.name "speedup" "x" (r.seq_seconds /. r.par_seconds);
         ])
       results)
    [
      Bench_gate.none "workloads whose parallel output differs"
        (fun r -> not r.equal_output)
        results;
    ]
