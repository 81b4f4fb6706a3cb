(* Parallel-runtime smoke bench: sequential vs --jobs N wall-clock on the
   batch the domain pool accelerates end to end — the per-version match
   jobs of [Matcher.accuracy] on a Web-archive site, spread across domains.
   A solve itself never spans domains.

   The speedup is a reported row, not a guard: pool wins depend on the
   machine's shape. The guard is that the parallel run returns the same
   answer as the sequential one. *)

module Pool = Phom_parallel.Pool
module Dataset = Phom_web.Dataset
module Matcher = Phom_web.Matcher

type result = {
  name : string;
  seq_seconds : float;
  par_seconds : float;
  equal_output : bool;
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

let versions = 11

let run ~jobs ~seed ~out () =
  Util.heading "Parallel runtime: sequential vs domain pool";
  Util.note "jobs %d (recommended for this machine: %d)" jobs
    (Domain.recommended_domain_count ());
  let results =
    Pool.with_pool ~domains:jobs (fun pool -> [ bench_matcher ~seed ~versions pool ])
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
