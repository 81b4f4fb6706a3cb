(* Benchmark harness: one target per table and figure of the paper's
   evaluation section (see DESIGN.md's per-experiment index).

   dune exec bench/main.exe            -- everything, reduced scale
   dune exec bench/main.exe -- --full  -- everything, paper scale (slow!)
   dune exec bench/main.exe -- table3  -- a single experiment
   dune exec bench/main.exe -- fig5 --axis noise
   dune exec bench/main.exe -- micro   -- bechamel micro-benchmarks

   Beside them, six gated suites (exact, dp, obs, recovery, fleet,
   parallel) report through Bench_gate; `make bench-gates` runs them all. *)

open Cmdliner
module Dataset = Phom_web.Dataset

let full_arg =
  Arg.(value & flag & info [ "full" ] ~doc:"Run at the paper's scale (much slower).")

let seed_arg = Arg.(value & opt int 2010 & info [ "seed" ] ~doc:"Random seed.")

let scale_of_full full = if full then Dataset.Full else Dataset.Reduced 10

let versions_arg =
  Arg.(value & opt int 11 & info [ "versions" ] ~doc:"Archive snapshots per site.")

let mcs_limit_arg =
  Arg.(
    value & opt (some float) None
    & info [ "mcs-limit" ] ~doc:"cdkMCS time limit in seconds (default 3, 60 with --full).")

let mcs_limit full = function Some l -> l | None -> if full then 60. else 3.

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Worker domains for the parallel runtime. Default 1 \
              (sequential), so published numbers stay comparable unless \
              parallelism is asked for explicitly.")

let check_jobs jobs =
  if jobs < 1 then begin
    Printf.eprintf "bench: --jobs must be at least 1 (got %d)\n" jobs;
    exit 1
  end

let with_pool jobs f =
  check_jobs jobs;
  if jobs = 1 then f None
  else Phom_parallel.Pool.with_pool ~domains:jobs (fun p -> f (Some p))

let axis_arg =
  let choices =
    Arg.enum [ ("size", Fig56.Size); ("noise", Fig56.Noise); ("xi", Fig56.Xi) ]
  in
  Arg.(
    value & opt choices Fig56.Size
    & info [ "axis" ] ~docv:"AXIS" ~doc:"Sweep axis: $(b,size), $(b,noise) or $(b,xi).")

let pick_arg =
  let choices = Arg.enum [ ("best", `Best_sim); ("first", `First) ] in
  Arg.(
    value & opt choices `Best_sim
    & info [ "pick" ] ~docv:"PICK"
        ~doc:"greedyMatch candidate heuristic: $(b,best) similarity (default) \
              or the paper-literal arbitrary $(b,first).")

let run_table2 full seed = Table2.run ~scale:(scale_of_full full) ~seed

let fast_sf_arg =
  Arg.(
    value & flag
    & info [ "fast-sf" ]
        ~doc:"Run the SF baseline with the factorized products instead of \
              Melnik's pairwise-graph walk (same results, much faster; see \
              ablation A5).")

let sf_impl_of fast =
  if fast then Phom_sim.Similarity_flooding.Factorized
  else Phom_sim.Similarity_flooding.Edge_pairs

let run_table3 full seed versions limit fast_sf jobs =
  with_pool jobs (fun pool ->
      Table3.run ~sf_impl:(sf_impl_of fast_sf) ?pool ~scale:(scale_of_full full)
        ~seed ~versions ~mcs_time_limit:(mcs_limit full limit) ())

let run_fig ~figure full seed axis pick jobs =
  let cfg = Fig56.default_cfg ~pick ~full ~axis ~seed () in
  let results = with_pool jobs (fun pool -> Fig56.sweep ?pool ~cfg ~axis ()) in
  match figure with
  | `Five -> Fig56.print_accuracy ~axis results
  | `Six -> Fig56.print_time ~axis results

let run_all full seed versions limit jobs =
  with_pool jobs @@ fun pool ->
  Table2.run ~scale:(scale_of_full full) ~seed;
  Table3.run ?pool ~scale:(scale_of_full full) ~seed ~versions
    ~mcs_time_limit:(mcs_limit full limit) ();
  List.iter
    (fun axis ->
      let cfg = Fig56.default_cfg ~full ~axis ~seed () in
      let results = Fig56.sweep ?pool ~cfg ~axis () in
      Fig56.print_accuracy ~axis results;
      Fig56.print_time ~axis results)
    [ Fig56.Size; Fig56.Noise; Fig56.Xi ];
  Ablations.run ~seed;
  Micro.run ()

let table2_cmd =
  Cmd.v (Cmd.info "table2" ~doc:"Reproduce Table 2 (web graphs and skeletons).")
    Term.(const run_table2 $ full_arg $ seed_arg)

let table3_cmd =
  Cmd.v
    (Cmd.info "table3" ~doc:"Reproduce Table 3 (accuracy/scalability, real-life data).")
    Term.(
      const run_table3 $ full_arg $ seed_arg $ versions_arg $ mcs_limit_arg
      $ fast_sf_arg $ jobs_arg)

let fig5_cmd =
  Cmd.v
    (Cmd.info "fig5" ~doc:"Reproduce Figure 5 (accuracy on synthetic data).")
    Term.(
      const (fun f s a p j -> run_fig ~figure:`Five f s a p j)
      $ full_arg $ seed_arg $ axis_arg $ pick_arg $ jobs_arg)

let fig6_cmd =
  Cmd.v
    (Cmd.info "fig6" ~doc:"Reproduce Figure 6 (scalability on synthetic data).")
    Term.(
      const (fun f s a p j -> run_fig ~figure:`Six f s a p j)
      $ full_arg $ seed_arg $ axis_arg $ pick_arg $ jobs_arg)

let micro_cmd =
  Cmd.v (Cmd.info "micro" ~doc:"Bechamel micro-benchmarks of the kernels.")
    Term.(const (fun () -> Micro.run ()) $ const ())

let ablations_cmd =
  Cmd.v
    (Cmd.info "ablations" ~doc:"Ablation benches for the design choices.")
    Term.(const (fun seed -> Ablations.run ~seed) $ seed_arg)

(* the gated suites: each takes --seed and --out (exact, dp and parallel
   also --jobs, exact and dp --check-against); every bound and workload
   shape is a constant in its module, and Bench_gate holds the rules *)

let out_arg suite =
  Arg.(
    value
    & opt string (Printf.sprintf "BENCH_%s.json" suite)
    & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the JSON report.")

let check_arg suite =
  Arg.(
    value & opt (some file) None
    & info [ "check-against" ] ~docv:"FILE"
        ~doc:(Printf.sprintf
                "Baseline BENCH_%s.json to gate against: fail when any tracked \
                 step or wall-time row regresses past Bench_gate's bounds."
                suite))

let seeded_cmd ~suite ~doc run =
  Cmd.v (Cmd.info suite ~doc)
    Term.(const (fun seed out -> run ~seed ~out ()) $ seed_arg $ out_arg suite)

let parallel_cmd =
  let run seed jobs out =
    check_jobs jobs;
    Parallel_bench.run ~jobs ~seed ~out ()
  in
  Cmd.v
    (Cmd.info "parallel"
       ~doc:"Sequential vs --jobs N wall-clock on the pool-accelerated \
             workloads; fails when the two disagree on an answer.")
    Term.(
      const run $ seed_arg
      $ Arg.(
          value
          & opt int (Domain.recommended_domain_count ())
          & info [ "jobs"; "j" ] ~docv:"N"
              ~doc:"Worker domains for the parallel side of the comparison.")
      $ out_arg "parallel")

let recovery_cmd =
  seeded_cmd ~suite:"recovery" Recovery_bench.run
    ~doc:"Durable-daemon restart cost: cold start (load + compute) vs \
          recovered start (snapshot + journal replay) to the first answer; \
          fails unless recovery is strictly cheaper and answers the same."

(* the exact and dp suites pin their own seeds: the tracked instances (and
   the checked-in baselines) are defined by them, unlike the survey benches
   where the seed only flavours the workload *)
let engine_cmd ~suite ~seed ~doc run =
  Cmd.v (Cmd.info suite ~doc)
    Term.(
      const (fun seed jobs out check ->
          with_pool jobs (fun pool -> run ~seed ?pool ~out ?check ()))
      $ Arg.(value & opt int seed & info [ "seed" ] ~doc:"Random seed.")
      $ jobs_arg $ out_arg suite $ check_arg suite)

let exact_cmd =
  engine_cmd ~suite:"exact" ~seed:2 Exact_bench.run
    ~doc:"Exact-path engine bench: legacy colouring B&B vs the bitset MWC \
          engine on seeded product-graph instances, steps-to-optimum and \
          wall-clock; fails below the speedup guard, and optionally gates \
          against a checked-in baseline."

let dp_cmd =
  engine_cmd ~suite:"dp" ~seed:7 Dp_bench.run
    ~doc:"Tree-decomposition DP vs the MWC engine on seeded low-treewidth \
          instances, steps-to-optimum and wall-clock; fails below the \
          speedup guard, and optionally gates against a checked-in \
          baseline."

let obs_cmd =
  seeded_cmd ~suite:"obs" Obs_bench.run
    ~doc:"Metrics-on vs metrics-off wall-clock on the daemon's warm-serve \
          path; fails above the 2% overhead bound."

let fleet_cmd =
  seeded_cmd ~suite:"fleet" Fleet_bench.run
    ~doc:"Routed latency against 1 vs 3 phomd replicas over loopback TCP, \
          plus the failover blip when a replica is killed -9 mid-workload; \
          fails when any routed request errors, the failover answer changes \
          or the blip exceeds its bound."

let all_term = Term.(const run_all $ full_arg $ seed_arg $ versions_arg $ mcs_limit_arg $ jobs_arg)

let all_cmd = Cmd.v (Cmd.info "all" ~doc:"Every table and figure (default).") all_term

let () =
  let doc = "reproduce every table and figure of Fan et al., VLDB 2010" in
  let info = Cmd.info "bench" ~doc in
  exit
    (Cmd.eval
       (Cmd.group ~default:all_term info
          [ table2_cmd; table3_cmd; fig5_cmd; fig6_cmd; ablations_cmd; micro_cmd;
            parallel_cmd; recovery_cmd; obs_cmd; exact_cmd; dp_cmd; fleet_cmd;
            all_cmd ]))
