(* The phom command-line tool: generate graphs, compute (1-1) p-hom
   matchings between graph files, decide the exact problems, and export DOT.

   Graph files use the "phg 1" text format of Phom_graph.Graph_io.

   Exit codes: 0 = success, 1 = error (bad input, bad flags), 2 = the
   command answered but a resource budget (--timeout / --steps) ran out
   first, so the answer may be incomplete. *)

open Cmdliner
module D = Phom_graph.Digraph
module IO = Phom_graph.Graph_io
module G = Phom_graph.Generators
module Budget = Phom_graph.Budget
module Simmat = Phom_sim.Simmat
module Shingle = Phom_sim.Shingle
module Api = Phom.Api

(* captured before any work so --timeout charges startup + parsing against
   the deadline *)
let start_time = Unix.gettimeofday ()

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("error: " ^ s);
      exit 1)
    fmt

(* every user-input failure becomes "error: ..." on stderr + exit 1, never
   an uncaught exception *)
let guard f =
  try f () with
  | Invalid_argument msg | Failure msg | Sys_error msg -> die "%s" msg

(* IO.load errors already name the file (and line, for parse errors) *)
let load_graph path =
  match IO.load path with Ok g -> g | Error msg -> die "%s" msg

(* ---- shared arguments ---- *)

let pattern_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PATTERN" ~doc:"Pattern graph file (G1).")

let data_arg =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"DATA" ~doc:"Data graph file (G2).")

let xi_arg =
  Arg.(value & opt float 0.75 & info [ "xi" ] ~docv:"XI" ~doc:"Similarity threshold in [0,1].")

let check_xi xi =
  if not (xi >= 0. && xi <= 1.) then die "--xi must be in [0,1] (got %g)" xi

let sim_arg =
  let choices = Arg.enum [ ("equality", `Equality); ("shingles", `Shingles) ] in
  Arg.(
    value & opt choices `Equality
    & info [ "sim" ] ~docv:"KIND"
        ~doc:"Node similarity: $(b,equality) compares labels exactly; \
              $(b,shingles) treats labels as documents and uses w-shingling.")

let mat_file_arg =
  Arg.(
    value & opt (some file) None
    & info [ "mat" ] ~docv:"FILE"
        ~doc:"Read the similarity matrix from a 'phs 1' file (overrides \
              $(b,--sim)); lets an external page checker or model drive the \
              matching.")

let matrix_of ?file kind g1 g2 =
  match file with
  | Some path -> (
      match Simmat.load path with
      | Ok m ->
          if Simmat.n1 m <> D.n g1 || Simmat.n2 m <> D.n g2 then
            die "matrix in %s is %dx%d but graphs are %dx%d" path (Simmat.n1 m)
              (Simmat.n2 m) (D.n g1) (D.n g2)
          else m
      | Error msg -> die "%s" msg)
  | None -> (
      match kind with
      | `Equality -> Simmat.of_label_equality g1 g2
      | `Shingles -> Shingle.matrix (D.labels g1) (D.labels g2))

let hops_arg =
  Arg.(
    value & opt (some int) None
    & info [ "k"; "hops" ] ~docv:"K"
        ~doc:"Bound mapped paths to at most $(docv) hops (default unbounded; \
              1 = conventional edge-to-edge matching).")

let instance_of ?budget ?hops g1 g2 mat xi =
  let tc2 =
    match hops with
    | None -> None
    | Some k when k < 1 -> die "--hops must be at least 1 (got %d)" k
    | Some k -> Some (Phom_graph.Bounded_closure.compute ?budget ~k g2)
  in
  Phom.Instance.make ?budget ?tc2 ~g1 ~g2 ~mat ~xi ()

(* ---- budget arguments ---- *)

let timeout_arg =
  Arg.(
    value & opt (some float) None
    & info [ "timeout" ] ~docv:"SECS"
        ~doc:"Wall-clock budget in seconds, anchored at process start. When \
              it runs out the command reports the best answer found so far \
              and exits with code 2.")

let steps_arg =
  Arg.(
    value & opt (some int) None
    & info [ "steps" ] ~docv:"N"
        ~doc:"Deterministic work-step budget (search nodes, fixpoint rows). \
              Exhaustion reports the best answer so far and exits with \
              code 2.")

let check_budget_flags timeout steps =
  (match timeout with
  | Some s when not (s > 0.) -> die "--timeout must be positive (got %g)" s
  | _ -> ());
  match steps with
  | Some n when n < 0 -> die "--steps must be non-negative (got %d)" n
  | _ -> ()

(* The fork/exec and OCaml runtime boot happen before [start_time] is
   captured, so a deadline anchored there would under-count what the user
   actually waits for.  Charge a conservative allowance for that pre-main
   work: --timeout bounds the observed end-to-end command, and a timeout at
   or below the allowance honestly reports incomplete instead of pretending
   the command fit inside it. *)
let startup_allowance = 0.005

(* [None] when neither flag is given (solvers then use their own defaults),
   otherwise a single token shared by the whole command *)
let budget_of ?default_steps timeout steps =
  check_budget_flags timeout steps;
  match (timeout, steps) with
  | None, None -> (
      match default_steps with
      | None -> None
      | Some n -> Some (Budget.create ~steps:n ()))
  | _ ->
      Some
        (Budget.create
           ~anchor:(start_time -. startup_allowance)
           ?timeout ?steps ())

(* final check for fast paths that finished between poll points: a command
   that beat its own solver but overshot the deadline still reports 2 *)
let tripped budget status =
  match status with
  | Budget.Exhausted _ -> true
  | Budget.Complete -> (
      match budget with Some b -> not (Budget.poll b) | None -> false)

let exhausted_line budget =
  match budget with
  | Some b -> (
      match Budget.why b with
      | Some r -> Printf.sprintf "incomplete (budget exhausted: %s)" (Budget.string_of_reason r)
      | None -> "incomplete (budget exhausted)")
  | None -> "incomplete (budget exhausted)"

let weights_arg =
  let choices =
    Arg.enum
      [ ("uniform", `Uniform); ("degree", `Degree); ("hub", `Hub); ("authority", `Authority) ]
  in
  Arg.(
    value & opt choices `Uniform
    & info [ "weights"; "w" ] ~docv:"KIND"
        ~doc:"Node-importance weights for the SPH problems: $(b,uniform), \
              $(b,degree), $(b,hub) or $(b,authority).")

let weights_of kind g1 =
  match kind with
  | `Uniform -> Phom.Weights.uniform g1
  | `Degree -> Phom.Weights.degree g1
  | `Hub -> Phom.Weights.hub g1
  | `Authority -> Phom.Weights.authority g1

let problem_arg =
  let choices =
    Arg.enum
      [ ("cph", Api.CPH); ("cph11", Api.CPH11); ("sph", Api.SPH); ("sph11", Api.SPH11) ]
  in
  Arg.(
    value & opt choices Api.CPH
    & info [ "problem"; "p" ] ~docv:"PROBLEM"
        ~doc:"Optimization problem: $(b,cph), $(b,cph11), $(b,sph) or $(b,sph11).")

let algorithm_arg =
  let choices =
    Arg.enum
      [ ("direct", Api.Direct); ("naive", Api.Naive_product);
        ("exact", Api.Exact_bb); ("dp", Api.Dp_td) ]
  in
  Arg.(
    value & opt choices Api.Direct
    & info [ "algorithm"; "a" ] ~docv:"ALGO"
        ~doc:"$(b,direct) = compMaxCard/compMaxSim, $(b,naive) = product graph, \
              $(b,exact) = branch and bound (tree-decomposition DP on narrow \
              patterns, see $(b,--max-width)), $(b,dp) = force the DP.")

let max_width_arg =
  Arg.(
    value & opt (some int) None
    & info [ "max-width" ] ~docv:"W"
        ~doc:"Decomposition-width ceiling up to which $(b,--algorithm exact) \
              routes to the tree-decomposition DP instead of branch and bound \
              (default 4; -1 disables the DP route).")

let partition_arg =
  Arg.(value & flag & info [ "partition" ] ~doc:"Enable the Appendix-B G1 partitioning.")

let compress_arg =
  Arg.(value & flag & info [ "compress" ] ~doc:"Enable the Appendix-B G2 compression.")

(* ---- match ---- *)

let match_cmd =
  let dot_out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "dot-out" ] ~docv:"FILE"
          ~doc:"Also write a Graphviz visualization of the mapping to $(docv).")
  in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:"Print the full match report: similarities and the witness \
                path for every mapped pattern edge.")
  in
  let run pattern data xi sim mat_file problem algorithm max_width partition
      compress hops weights dot_out explain timeout steps =
    guard @@ fun () ->
    check_xi xi;
    if compress && hops <> None then
      die "--compress needs the full closure and cannot be combined with --hops";
    let budget = budget_of timeout steps in
    let g1 = load_graph pattern and g2 = load_graph data in
    let mat = matrix_of ?file:mat_file sim g1 g2 in
    let t = instance_of ?budget ?hops g1 g2 mat xi in
    let weights = weights_of weights g1 in
    let r =
      Api.solve_within ~algorithm ?max_width ~partition ~compress ~weights
        ?budget problem t
    in
    if explain then print_string (Api.report t r)
    else begin
      Printf.printf "problem   : %s\n" (Api.problem_name problem);
      Printf.printf "quality   : %.4f\n" r.Api.quality;
      Printf.printf "matched   : %b (threshold 0.75)\n" (Api.matches r);
      Printf.printf "mapping   : %d of %d pattern nodes\n"
        (Phom.Mapping.size r.Api.mapping) (D.n g1);
      List.iter
        (fun (v, u) ->
          Printf.printf "  %d [%s] -> %d [%s]\n" v (D.label g1 v) u (D.label g2 u))
        r.Api.mapping
    end;
    (match dot_out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (IO.mapping_to_dot ~g1 ~g2 r.Api.mapping));
        Printf.printf "wrote %s\n" path);
    if tripped budget r.Api.status then begin
      Printf.printf "status    : %s\n" (exhausted_line budget);
      exit 2
    end
  in
  let term =
    Term.(
      const run $ pattern_arg $ data_arg $ xi_arg $ sim_arg $ mat_file_arg
      $ problem_arg $ algorithm_arg $ max_width_arg $ partition_arg
      $ compress_arg $ hops_arg $ weights_arg $ dot_out_arg $ explain_arg
      $ timeout_arg $ steps_arg)
  in
  Cmd.v
    (Cmd.info "match"
       ~doc:"Compute a maximum (1-1) p-hom mapping between two graph files. \
             Exits 2 when --timeout/--steps ran out (best-so-far answer).")
    term

(* ---- compare ---- *)

let compare_cmd =
  let run pattern data xi sim mat_file hops timeout steps =
    guard @@ fun () ->
    check_xi xi;
    check_budget_flags timeout steps;
    let any_tripped = ref false in
    (* a fresh token per method, so one runaway baseline cannot starve the
       rest of the table; each gets the full allowance *)
    let fresh ?timeout:dt ?steps:ds () =
      match (timeout, steps, dt, ds) with
      | None, None, None, None -> None
      | None, None, _, _ -> Some (Budget.create ?timeout:dt ?steps:ds ())
      | _ -> Some (Budget.create ?timeout ?steps ())
    in
    let note budget =
      match budget with
      | Some b when Budget.exhausted b -> any_tripped := true
      | _ -> ()
    in
    let g1 = load_graph pattern and g2 = load_graph data in
    let mat = matrix_of ?file:mat_file sim g1 g2 in
    let t = instance_of ?hops g1 g2 mat xi in
    Printf.printf "%-22s %-10s %s\n" "method" "quality" "matched@0.75";
    List.iter
      (fun p ->
        let budget = fresh () in
        let r = Api.solve_within ?budget p t in
        (match r.Api.status with Budget.Exhausted _ -> any_tripped := true | _ -> ());
        Printf.printf "%-22s %-10.4f %b\n" (Api.problem_name p) r.Api.quality
          (Api.matches r))
      [ Api.CPH; Api.CPH11; Api.SPH; Api.SPH11 ];
    let module Sim = Phom_baselines.Simulation in
    let sim_budget = fresh () in
    let sim_rel = Sim.of_simmat ?budget:sim_budget ~mat ~xi g1 g2 in
    note sim_budget;
    Printf.printf "%-22s %-10s %b\n" "graphSimulation" "-"
      (Sim.matches_whole_graph sim_rel);
    let module Ull = Phom_baselines.Ullmann in
    Printf.printf "%-22s %-10s %s\n" "subgraphIsomorphism" "-"
      (match
         Ull.exists
           ~node_compat:(fun v u -> Simmat.get mat v u >= xi)
           ?budget:(fresh ()) g1 g2
       with
      | Some b -> string_of_bool b
      | None ->
          any_tripped := true;
          "gave up");
    let module Mcs = Phom_baselines.Mcs in
    (match
       Mcs.run
         ~node_compat:(fun v u -> Simmat.get mat v u >= xi)
         ?budget:(fresh ~timeout:10. ~steps:10_000_000 ())
         g1 g2
     with
    | Mcs.Completed m ->
        Printf.printf "%-22s %-10.4f %b\n" "maxCommonSubgraph" (Mcs.quality g1 m)
          (Mcs.quality g1 m >= 0.75)
    | Mcs.Timed_out m ->
        any_tripped := true;
        Printf.printf "%-22s %-10.4f timeout (best so far)\n" "maxCommonSubgraph"
          (Mcs.quality g1 m));
    let module Ged = Phom_baselines.Ged in
    let ged_budget = fresh () in
    let s = Ged.similarity ~costs:(Ged.costs_of_simmat mat) ?budget:ged_budget g1 g2 in
    note ged_budget;
    Printf.printf "%-22s %-10.4f %b\n" "editDistance" s (s >= 0.75);
    let module PF = Phom_baselines.Path_features in
    let pf = PF.similarity g1 g2 in
    Printf.printf "%-22s %-10.4f %b\n" "pathFeatures" pf (pf >= 0.75);
    if !any_tripped then exit 2
  in
  let term =
    Term.(
      const run $ pattern_arg $ data_arg $ xi_arg $ sim_arg $ mat_file_arg
      $ hops_arg $ timeout_arg $ steps_arg)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Run every matching notion on two graph files and tabulate. Exits \
             2 when any method's budget ran out.")
    term

(* ---- decide ---- *)

let decide_cmd =
  let injective_arg =
    Arg.(value & flag & info [ "injective"; "1-1" ] ~doc:"Decide 1-1 p-hom instead of p-hom.")
  in
  let run pattern data xi sim mat_file injective hops timeout steps =
    guard @@ fun () ->
    check_xi xi;
    (* an unbudgeted exact decision could run forever; keep the old default *)
    let budget = budget_of ~default_steps:5_000_000 timeout steps in
    let g1 = load_graph pattern and g2 = load_graph data in
    let mat = matrix_of ?file:mat_file sim g1 g2 in
    let t = instance_of ?budget ?hops g1 g2 mat xi in
    match Phom.Prefilter.decide ~injective ?budget t with
    | Some true ->
        Printf.printf "yes: G1 %s G2 at xi = %g\n"
          (if injective then "<=(1-1)" else "<=(e,p)")
          xi
    | Some false -> print_endline "no"
    | None ->
        print_endline "undecided (budget exhausted)";
        exit 2
  in
  let term =
    Term.(
      const run $ pattern_arg $ data_arg $ xi_arg $ sim_arg $ mat_file_arg
      $ injective_arg $ hops_arg $ timeout_arg $ steps_arg)
  in
  Cmd.v
    (Cmd.info "decide"
       ~doc:"Decide the NP-complete (1-1) p-hom problem exactly. Exits 2 when \
             undecided within the budget (default: 5,000,000 steps).")
    term

(* ---- witnesses ---- *)

let witnesses_cmd =
  let injective_arg =
    Arg.(value & flag & info [ "injective"; "1-1" ] ~doc:"Enumerate 1-1 mappings.")
  in
  let limit_arg =
    Arg.(value & opt int 20 & info [ "limit" ] ~doc:"Maximum mappings to list.")
  in
  let run pattern data xi sim mat_file hops injective limit timeout steps =
    guard @@ fun () ->
    check_xi xi;
    if limit < 0 then die "--limit must be non-negative (got %d)" limit;
    let budget = budget_of timeout steps in
    let g1 = load_graph pattern and g2 = load_graph data in
    let mat = matrix_of ?file:mat_file sim g1 g2 in
    let t = instance_of ?budget ?hops g1 g2 mat xi in
    let mappings, exhaustive =
      Phom.Exact.enumerate_optimal ~injective ~limit ?budget
        ~objective:Phom.Exact.Cardinality t
    in
    Printf.printf "%d optimal mapping(s)%s\n" (List.length mappings)
      (if exhaustive then "" else " (truncated)");
    List.iteri
      (fun i m ->
        Printf.printf "#%d:" (i + 1);
        List.iter
          (fun (v, u) ->
            Printf.printf " %s->%s" (D.label g1 v) (D.label g2 u))
          m;
        print_newline ())
      mappings;
    match budget with
    | Some b when Budget.exhausted b || not (Budget.poll b) -> exit 2
    | _ -> ()
  in
  let term =
    Term.(
      const run $ pattern_arg $ data_arg $ xi_arg $ sim_arg $ mat_file_arg
      $ hops_arg $ injective_arg $ limit_arg $ timeout_arg $ steps_arg)
  in
  Cmd.v
    (Cmd.info "witnesses"
       ~doc:"Enumerate all optimal (1-1) p-hom mappings between two graphs. \
             Exits 2 when --timeout/--steps truncated the enumeration.")
    term

(* ---- count ---- *)

let count_cmd =
  let run pattern data xi sim mat_file hops timeout steps =
    guard @@ fun () ->
    check_xi xi;
    let budget = budget_of timeout steps in
    let g1 = load_graph pattern and g2 = load_graph data in
    let mat = matrix_of ?file:mat_file sim g1 g2 in
    let t = instance_of ?budget ?hops g1 g2 mat xi in
    let r = Api.count ?budget t in
    Printf.printf "mappings  : %d%s\n" r.Phom.Dp.count
      (if r.Phom.Dp.exact then "" else " (saturated, lower bound)");
    Printf.printf "width     : %d\n" r.Phom.Dp.width;
    if tripped budget r.Phom.Dp.status then begin
      Printf.printf "status    : %s\n" (exhausted_line budget);
      exit 2
    end
  in
  let term =
    Term.(
      const run $ pattern_arg $ data_arg $ xi_arg $ sim_arg $ mat_file_arg
      $ hops_arg $ timeout_arg $ steps_arg)
  in
  Cmd.v
    (Cmd.info "count"
       ~doc:"Count the p-hom mappings of the pattern into the data graph via \
             the tree-decomposition DP (count > 0 iff G1 <=(e,p) G2). Exits 2 \
             when --timeout/--steps ran out (the count is then 0 and \
             meaningless).")
    term

(* ---- generate ---- *)

let generate_cmd =
  let kind_arg =
    let choices =
      Arg.enum
        [ ("er", `Er); ("dag", `Dag); ("tree", `Tree); ("sp", `Sp);
          ("ktree", `Ktree); ("pattern", `Pattern); ("data", `Data) ]
    in
    Arg.(
      required & pos 0 (some choices) None
      & info [] ~docv:"KIND"
          ~doc:"$(b,er), $(b,dag), $(b,tree), $(b,sp) (series-parallel, \
                treewidth <= 2), $(b,ktree) (partial k-tree, see $(b,--tw) \
                and $(b,--keep)), $(b,pattern) (paper synthetic G1) or \
                $(b,data) (paper synthetic G2 for --from pattern).")
  in
  let out_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT" ~doc:"Output file.")
  in
  let n_arg = Arg.(value & opt int 100 & info [ "n"; "nodes" ] ~doc:"Number of nodes (m for pattern).") in
  let m_arg =
    Arg.(
      value & opt (some int) None
      & info [ "m"; "edges" ]
          ~doc:"Number of edges, for $(b,er) and $(b,dag) graphs (default \
                twice the node count). The other kinds fix their own edges \
                and refuse it.")
  in
  let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let noise_arg = Arg.(value & opt float 0.1 & info [ "noise" ] ~doc:"Noise rate for data graphs.") in
  let from_arg =
    Arg.(value & opt (some file) None & info [ "from" ] ~doc:"Pattern file (for data graphs).")
  in
  let tw_arg =
    Arg.(
      value & opt int 2
      & info [ "tw" ] ~docv:"K" ~doc:"Treewidth bound for $(b,ktree) graphs.")
  in
  let keep_arg =
    Arg.(
      value & opt float 1.0
      & info [ "keep" ] ~docv:"P"
          ~doc:"For $(b,ktree): keep each edge with probability $(docv) \
                (1.0 = the full k-tree).")
  in
  let run kind out n m seed noise from tw keep =
    guard @@ fun () ->
    if n < 0 then die "--nodes must be non-negative (got %d)" n;
    Option.iter
      (fun m -> if m < 0 then die "--edges must be non-negative (got %d)" m)
      m;
    (match (kind, m) with
    | (`Er | `Dag), _ | _, None -> ()
    | _, Some _ -> die "--edges applies only to er and dag graphs");
    if tw < 1 then die "--tw must be at least 1 (got %d)" tw;
    if not (keep >= 0. && keep <= 1.) then
      die "--keep must be in [0,1] (got %g)" keep;
    let rng = Random.State.make [| seed |] in
    let labels i = "n" ^ string_of_int i in
    let g =
      match kind with
      | `Er -> G.erdos_renyi ~rng ~n ~m:(Option.value m ~default:(2 * n)) ~labels
      | `Dag -> G.random_dag ~rng ~n ~m:(Option.value m ~default:(2 * n)) ~labels
      | `Tree -> G.random_tree ~rng ~n ~labels
      | `Sp -> G.series_parallel ~rng ~n ~labels
      | `Ktree -> G.random_ktree ~rng ~n ~k:tw ~keep ~labels ()
      | `Pattern -> fst (G.paper_pattern ~rng ~m:n)
      | `Data -> (
          match from with
          | None -> die "data generation needs --from PATTERN"
          | Some path ->
              let g1 = load_graph path in
              let pool = G.pool_for (D.n g1) in
              G.paper_data ~rng ~pool ~noise g1)
    in
    IO.save out g;
    Printf.printf "wrote %s: %d nodes, %d edges\n" out (D.n g) (D.nb_edges g)
  in
  let term =
    Term.(
      const run $ kind_arg $ out_arg $ n_arg $ m_arg $ seed_arg $ noise_arg
      $ from_arg $ tw_arg $ keep_arg)
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate random graphs in phg format.") term

(* ---- stats ---- *)

let stats_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Graph file.")
  in
  let run path =
    guard @@ fun () ->
    let g = load_graph path in
    let scc = Phom_graph.Scc.compute g in
    Printf.printf "nodes      : %d\n" (D.n g);
    Printf.printf "edges      : %d\n" (D.nb_edges g);
    Printf.printf "avg degree : %.2f\n" (D.avg_degree g);
    Printf.printf "max degree : %d\n" (D.max_degree g);
    Printf.printf "SCCs       : %d\n" scc.Phom_graph.Scc.count;
    Printf.printf "acyclic    : %b\n" (Phom_graph.Traversal.is_dag g)
  in
  Cmd.v (Cmd.info "stats" ~doc:"Print graph statistics.") Term.(const run $ file_arg)

(* ---- dot ---- *)

let dot_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Graph file.")
  in
  let run path = guard @@ fun () -> print_string (IO.to_dot (load_graph path)) in
  Cmd.v (Cmd.info "dot" ~doc:"Convert a graph file to Graphviz DOT on stdout.") Term.(const run $ file_arg)

(* ---- edit ---- *)

(* the offline counterpart of the daemon's addedge/deledge verbs: same
   single-edge semantics (duplicate adds and missing dels are errors, not
   silent no-ops), applied to a phg file instead of a loaded catalog entry *)
let edit_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Graph file.")
  in
  let add_arg =
    Arg.(
      value & opt_all string []
      & info [ "add" ] ~docv:"V,W"
          ~doc:"Add the directed edge $(docv) (node ids; repeatable). \
                Adding an edge that is already present is an error.")
  in
  let del_arg =
    Arg.(
      value & opt_all string []
      & info [ "del" ] ~docv:"V,W"
          ~doc:"Delete the directed edge $(docv) (repeatable; deletions run \
                after additions). Deleting an absent edge is an error.")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"OUT"
          ~doc:"Write the edited graph to $(docv) instead of editing FILE \
                in place.")
  in
  let run path adds dels out =
    guard @@ fun () ->
    let parse_pair flag s =
      let bad () = die "--%s wants V,W as non-negative node ids (got %s)" flag s in
      match String.index_opt s ',' with
      | None -> bad ()
      | Some i -> (
          let v = String.sub s 0 i
          and w = String.sub s (i + 1) (String.length s - i - 1) in
          match (int_of_string_opt v, int_of_string_opt w) with
          | Some v, Some w when v >= 0 && w >= 0 -> (v, w)
          | _ -> bad ())
    in
    let g = load_graph path in
    let g =
      List.fold_left
        (fun g s ->
          let v, w = parse_pair "add" s in
          D.add_edge g v w)
        g adds
    in
    let g =
      List.fold_left
        (fun g s ->
          let v, w = parse_pair "del" s in
          D.remove_edge g v w)
        g dels
    in
    let out = Option.value out ~default:path in
    IO.save out g;
    Printf.printf "wrote %s: %d nodes, %d edges (+%d -%d)\n" out (D.n g)
      (D.nb_edges g) (List.length adds) (List.length dels)
  in
  Cmd.v
    (Cmd.info "edit"
       ~doc:"Apply single-edge additions and deletions to a graph file — \
             the offline counterpart of the daemon's $(b,addedge) and \
             $(b,deledge) verbs. All edits validate (range, duplicates, \
             missing edges) or the file is left untouched.")
    Term.(const run $ file_arg $ add_arg $ del_arg $ out_arg)

(* ---- client ---- *)

let client_cmd =
  let addr_arg =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"ADDR"
          ~doc:"Daemon address: a Unix-domain socket path, or HOST:PORT for \
                TCP. Omit it when routing with $(b,--endpoints).")
  in
  let endpoints_arg =
    Arg.(
      value & opt (some string) None
      & info [ "endpoints" ] ~docv:"ADDR,ADDR,..."
          ~doc:"Fleet mode: route the request across this comma-separated \
                replica set instead of a single ADDR. Solves and counts go \
                to the consistent-hash owner of their graph pair and fail \
                over to the next replica when it is down, draining or busy; \
                loads and unloads broadcast to every reachable replica. \
                Every positional argument is request text (there is no \
                ADDR). Mutually exclusive with $(b,--hold) and \
                $(b,--no-read).")
  in
  let request_arg =
    Arg.(
      value & pos_right 0 string []
      & info [] ~docv:"REQUEST"
          ~doc:"The request line, as protocol tokens. Put $(b,--) before \
                them (or quote the whole request) so solve flags like \
                $(b,--xi) reach the daemon instead of this tool.")
  in
  let connect_timeout_arg =
    Arg.(
      value & opt (some float) None
      & info [ "connect-timeout" ] ~docv:"SECS"
          ~doc:"Give up if the connection is not established within $(docv) \
                seconds.")
  in
  let read_timeout_arg =
    Arg.(
      value & opt (some float) None
      & info [ "read-timeout" ] ~docv:"SECS"
          ~doc:"Give up if the reply does not arrive within $(docv) seconds.")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:"Retry up to $(docv) times on connection failures and on \
                $(b,error busy retry-after=<s>) replies, with exponential \
                back-off and jitter (never pausing less than the daemon's \
                hint). 0 (the default) means one shot.")
  in
  let retry_delay_arg =
    Arg.(
      value & opt float 0.2
      & info [ "retry-delay" ] ~docv:"SECS"
          ~doc:"Base back-off delay, doubled on every retry and capped at \
                ten times $(docv).")
  in
  let hold_arg =
    Arg.(
      value & opt (some float) None
      & info [ "hold" ] ~docv:"SECS"
          ~doc:"Testing aid: connect, send nothing, stay silent for $(docv) \
                seconds, then exit 0. Exercises the daemon's idle-eviction \
                path.")
  in
  let no_read_arg =
    Arg.(
      value
      & flag
      & info [ "no-read" ]
          ~doc:"Testing aid: send the request, then close the connection \
                without reading the reply (a mid-solve disconnect).")
  in
  let place_arg =
    Arg.(
      value & opt (some string) None
      & info [ "place" ] ~docv:"G1,G2"
          ~doc:"With $(b,--endpoints): print the replica preference order \
                for the graph pair $(docv) (owner first, one endpoint per \
                line) and exit without contacting the fleet. The chaos \
                harness uses this to find which replica to kill.")
  in
  let run addr endpoints request connect_timeout read_timeout retries
      retry_delay hold no_read place =
    guard @@ fun () ->
    (* mirror the CLI budget contract: 0 ok, 1 error, 2 answered but a
       budget tripped *)
    let finish reply =
      print_endline reply;
      if String.length reply >= 5 && String.sub reply 0 5 = "error" then
        exit 1
      else if
        let exhausted = "status=exhausted" in
        let n = String.length reply and m = String.length exhausted in
        let rec scan i =
          i + m <= n && (String.sub reply i m = exhausted || scan (i + 1))
        in
        scan 0
      then exit 2
    in
    let request_line tokens =
      let line = String.concat " " tokens in
      if String.trim line = "" then
        die "empty request (try one of: %s)" Phom_server.Protocol.verb_summary;
      line
    in
    match endpoints with
    | Some spec -> (
        (* with --endpoints there is no ADDR: the first positional token is
           the request verb, which cmdliner has parsed into [addr] *)
        let request =
          match addr with Some a -> a :: request | None -> request
        in
        if hold <> None || no_read then
          die "--hold and --no-read drive a single connection; they need \
               ADDR, not --endpoints";
        let eps =
          String.split_on_char ',' spec |> List.map String.trim
          |> List.filter (fun s -> s <> "")
        in
        (match place with
        | Some pair ->
            (let g1, g2 =
               match String.index_opt pair ',' with
               | Some i ->
                   ( String.sub pair 0 i,
                     String.sub pair (i + 1) (String.length pair - i - 1) )
               | None -> die "--place wants G1,G2"
             in
             (* placement is pure ring arithmetic; an inert transport keeps
                this usable before any replica is even up *)
             match
               Phom_server.Router.create
                 ~transport:(fun _ _ -> Ok "")
                 ~endpoints:eps ()
             with
             | Error msg -> die "%s" msg
             | Ok router ->
                 List.iter print_endline
                   (Phom_server.Router.place router
                      ~key:(Phom_server.Router.solve_key ~g1 ~g2)));
            exit 0
        | None -> ());
        let line = request_line request in
        let config =
          {
            Phom_server.Router.default_config with
            connect_timeout =
              (match connect_timeout with
              | None -> Phom_server.Router.default_config.connect_timeout
              | some -> some);
            read_timeout =
              (match read_timeout with
              | None -> Phom_server.Router.default_config.read_timeout
              | some -> some);
          }
        in
        match Phom_server.Router.create ~config ~endpoints:eps () with
        | Error msg -> die "%s" msg
        | Ok router -> (
            match Phom_server.Router.request router line with
            | Error msg -> die "%s" msg
            | Ok reply -> finish reply))
    | None -> (
    if place <> None then die "--place needs --endpoints";
    let addr =
      match addr with
      | Some a -> a
      | None -> die "missing ADDR (or use --endpoints for a fleet)"
    in
    let with_addr k =
      match Phom_server.Client.sockaddr_of_string addr with
      | Error msg -> die "%s" msg
      | Ok sockaddr -> k sockaddr
    in
    match hold with
    | Some secs ->
        with_addr (fun sockaddr ->
            match Phom_server.Client.connect ?timeout:connect_timeout sockaddr with
            | Error msg -> die "%s" msg
            | Ok conn ->
                Unix.sleepf (Float.max 0. secs);
                Phom_server.Client.close conn)
    | None -> (
        let line = request_line request in
        with_addr @@ fun sockaddr ->
        if no_read then (
          match Phom_server.Client.connect ?timeout:connect_timeout sockaddr with
          | Error msg -> die "%s" msg
          | Ok conn ->
              let r = Phom_server.Client.post conn line in
              Phom_server.Client.close conn;
              match r with Error msg -> die "%s" msg | Ok () -> ())
        else
          let backoff =
            {
              Phom_server.Client.retries = max 0 retries;
              delay = Float.max 0. retry_delay;
              max_delay = Float.max 0. retry_delay *. 10.;
            }
          in
          match
            Phom_server.Client.request ?connect_timeout ?read_timeout ~backoff
              sockaddr line
          with
          | Error msg -> die "%s" msg
          | Ok reply -> finish reply))
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request line to a running phomd and print the reply. \
             Exits 0 on an ok reply, 1 on an error reply or connection \
             failure, 2 when the reply reports an exhausted budget. \
             $(b,--retries) adds exponential back-off against busy or \
             briefly-absent daemons.")
    Term.(
      const run $ addr_arg $ endpoints_arg $ request_arg $ connect_timeout_arg
      $ read_timeout_arg $ retries_arg $ retry_delay_arg $ hold_arg
      $ no_read_arg $ place_arg)

let () =
  let doc = "graph matching by p-homomorphism (Fan et al., VLDB 2010)" in
  let info = Cmd.info "phom" ~version:Phom_server.Version.string ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            match_cmd; compare_cmd; decide_cmd; witnesses_cmd; count_cmd;
            generate_cmd; stats_cmd; dot_cmd; edit_cmd; client_cmd;
          ]))
