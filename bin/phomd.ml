(* phomd: the resident matching service. Loads graphs and similarity
   matrices once into a catalog, keeps derived artifacts (closures,
   similarity matrices, candidate tables) in a byte-capped LRU cache, and
   answers line-protocol requests over a Unix-domain (and optionally TCP)
   socket, running each solve as a budgeted job on a shared domain pool.

   The protocol grammar lives in Phom_server.Protocol; `phom client` is the
   matching one-shot client. *)

open Cmdliner
module Daemon = Phom_server.Daemon

let socket_arg =
  Arg.(
    value & opt (some string) None
    & info [ "socket"; "s" ] ~docv:"PATH"
        ~doc:"Listen on a Unix-domain socket at $(docv). An existing socket \
              is connect-probed first: if a live daemon answers $(b,ping) \
              there, startup is refused; a stale socket left by a crash is \
              replaced. Any other existing file is refused. Unlinked on \
              shutdown.")

let listen_arg =
  Arg.(
    value & opt_all string []
    & info [ "listen" ] ~docv:"HOST:PORT"
        ~doc:"Also listen on $(docv) (repeatable — one flag per listener). \
              $(docv) takes a numeric IP or a resolvable host name; an \
              empty host or $(b,*) binds all interfaces; port 0 picks an \
              ephemeral port, reported in the startup banner. This is the \
              fleet-facing transport: point $(b,phom client --endpoints) at \
              these addresses.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Domains in the shared solving pool, the event loop's own \
              included. The loop never runs a solve, so $(docv)-1 workers \
              run solves, one solve per worker: $(b,--jobs 2) serves one \
              solve at a time. $(b,--jobs 1) (the default) runs each solve \
              on the loop's domain. Replies are the same at any $(docv), \
              step-capped ones included.")

let cache_mb_arg =
  Arg.(
    value & opt int 256
    & info [ "cache-mb" ] ~docv:"MB"
        ~doc:"Artifact-cache capacity in MiB (closures, similarity \
              matrices, candidate tables). Least-recently-used artifacts \
              are evicted when the budget is exceeded.")

let max_graph_mb_arg =
  Arg.(
    value & opt int 64
    & info [ "max-graph-mb" ] ~docv:"MB"
        ~doc:"Refuse to load graph files larger than $(docv) MiB.")

let max_mat_mb_arg =
  Arg.(
    value & opt int 64
    & info [ "max-mat-mb" ] ~docv:"MB"
        ~doc:"Refuse to load similarity-matrix files larger than $(docv) MiB.")

let default_timeout_arg =
  Arg.(
    value & opt (some float) (Some 5.)
    & info [ "default-timeout" ] ~docv:"SECS"
        ~doc:"Per-request wall-clock budget applied when a solve names no \
              $(b,--timeout) of its own, so one hard query cannot occupy \
              the daemon forever. 0 disables the default.")

let default_steps_arg =
  Arg.(
    value & opt (some int) None
    & info [ "default-steps" ] ~docv:"N"
        ~doc:"Per-request step budget applied when a solve names no \
              $(b,--steps) of its own.")

let max_conns_arg =
  Arg.(
    value & opt int 64
    & info [ "max-conns" ] ~docv:"N"
        ~doc:"Admission control: connections beyond $(docv) are answered \
              $(b,error busy retry-after=<s>) and closed immediately.")

let max_pending_arg =
  Arg.(
    value & opt int 32
    & info [ "max-pending" ] ~docv:"N"
        ~doc:"Solves in flight beyond $(docv) are shed with the same busy \
              reply; the connection stays open.")

let idle_timeout_arg =
  Arg.(
    value & opt float 300.
    & info [ "idle-timeout" ] ~docv:"SECS"
        ~doc:"Evict a connection idle for $(docv) seconds with \
              $(b,error idle-timeout), so stalled peers cannot pin \
              connection slots. 0 disables eviction.")

let retry_after_arg =
  Arg.(
    value & opt float 1.
    & info [ "retry-after" ] ~docv:"SECS"
        ~doc:"The back-off hint carried by busy replies.")

let drain_grace_arg =
  Arg.(
    value & opt float 5.
    & info [ "drain-grace" ] ~docv:"SECS"
        ~doc:"On shutdown or SIGTERM/SIGINT, wait up to $(docv) seconds for \
              in-flight replies to flush before cutting stragglers.")

let fault_delay_arg =
  Arg.(
    value & opt float 0.
    & info [ "fault-delay" ] ~docv:"SECS"
        ~doc:"Testing aid: sleep $(docv) seconds at the start of every \
              solve, so fault-injection tests can reliably catch a solve \
              in flight. 0 (the default) disables.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress the startup banner.")

let metrics_dump_arg =
  Arg.(
    value & opt (some string) None
    & info [ "metrics-dump" ] ~docv:"FILE"
        ~doc:"After the daemon drains, write a final snapshot of the \
              metrics registry to $(docv) in Prometheus text format (the \
              same text the $(b,stats) command serves live). The write is \
              atomic: $(docv) holds either its previous content or the \
              complete dump, never a torn blend.")

let state_dir_arg =
  Arg.(
    value & opt (some string) None
    & info [ "state-dir" ] ~docv:"DIR"
        ~doc:"Make the daemon crash-durable: keep checksummed snapshots of \
              the catalog and artifact cache plus a recovery journal in \
              $(docv), and recover from them on start (corrupt entries are \
              quarantined and reported by $(b,health), never served). \
              Without it the daemon is ephemeral, as before.")

let fsync_arg =
  let parse s =
    match Phom_server.Journal.fsync_of_string s with
    | Some f -> Ok f
    | None -> Error (`Msg (s ^ ": expected always, interval or never"))
  in
  let print ppf f =
    Format.pp_print_string ppf (Phom_server.Journal.fsync_to_string f)
  in
  Arg.(
    value
    & opt (conv (parse, print)) Phom_server.Journal.Interval
    & info [ "fsync" ] ~docv:"POLICY"
        ~doc:"Journal durability policy: $(b,always) fsyncs every appended \
              event (lose nothing short of media failure), $(b,interval) \
              fsyncs on the daemon's periodic tick (lose at most a tick), \
              $(b,never) trusts the page cache (survives kill -9, not \
              power loss). Only meaningful with $(b,--state-dir).")

let snapshot_interval_arg =
  Arg.(
    value & opt float 60.
    & info [ "snapshot-interval" ] ~docv:"SECS"
        ~doc:"Seconds between periodic state snapshots (with \
              $(b,--state-dir)). A snapshot also lands on every graceful \
              drain.")

let run socket listen jobs cache_mb max_graph_mb max_mat_mb default_timeout
    default_steps max_conns max_pending idle_timeout retry_after drain_grace
    fault_delay quiet metrics_dump state_dir fsync snapshot_interval =
  if socket = None && listen = [] then begin
    prerr_endline "error: nothing to listen on (give --socket and/or --listen)";
    exit 1
  end;
  if jobs < 1 then begin
    Printf.eprintf "error: --jobs must be at least 1 (got %d)\n" jobs;
    exit 1
  end;
  let mb_check name v =
    if v < 1 then begin
      Printf.eprintf "error: %s must be at least 1 (got %d)\n" name v;
      exit 1
    end
  in
  mb_check "--cache-mb" cache_mb;
  mb_check "--max-graph-mb" max_graph_mb;
  mb_check "--max-mat-mb" max_mat_mb;
  if max_conns < 1 then begin
    Printf.eprintf "error: --max-conns must be at least 1 (got %d)\n" max_conns;
    exit 1
  end;
  if max_pending < 1 then begin
    Printf.eprintf "error: --max-pending must be at least 1 (got %d)\n"
      max_pending;
    exit 1
  end;
  let default_timeout =
    match default_timeout with
    | Some t when t <= 0. -> None
    | t -> t
  in
  Phom_server.Faults.set_solve_delay fault_delay;
  let config =
    {
      Daemon.socket_path = socket;
      listen;
      jobs;
      cache_bytes = cache_mb * 1024 * 1024;
      max_graph_bytes = max_graph_mb * 1024 * 1024;
      max_mat_bytes = max_mat_mb * 1024 * 1024;
      default_timeout;
      default_steps;
      max_conns;
      max_pending;
      idle_timeout = (if idle_timeout <= 0. then None else Some idle_timeout);
      max_line_bytes = 8192;
      retry_after = Float.max 0. retry_after;
      drain_grace = Float.max 0. drain_grace;
      state_dir;
      fsync;
      snapshot_interval = Float.max 1. snapshot_interval;
    }
  in
  let ready listeners =
    if not quiet then begin
      List.iter
        (fun l -> Printf.printf "phomd %s listening on %s\n"
            Phom_server.Version.string l)
        listeners;
      (* the smoke scripts wait for this line before connecting *)
      flush stdout
    end
  in
  let dump_metrics () =
    match metrics_dump with
    | None -> ()
    | Some file -> (
        (* atomic so a crash mid-dump (or a concurrent scrape) never sees
           a torn metrics file *)
        match
          Phom_server.Persist.write_file_atomic ~path:file
            (Phom_obs.Obs.dump ())
        with
        | Ok () -> ()
        | Error msg -> prerr_endline ("error: " ^ msg))
  in
  match Daemon.serve ~ready config with
  | () -> dump_metrics ()
  | exception Invalid_argument msg | exception Sys_error msg | exception Failure msg ->
      prerr_endline ("error: " ^ msg);
      exit 1
  | exception Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "error: %s%s: %s\n" fn
        (if arg = "" then "" else " " ^ arg)
        (Unix.error_message e);
      exit 1

let () =
  let doc = "p-homomorphism matching service daemon" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs in the foreground, answering one-line requests over the \
         configured sockets until a $(b,shutdown) request arrives. Load \
         graphs once, then solve repeatedly: closures, similarity matrices \
         and candidate tables are cached across requests, so warm queries \
         skip the expensive shared-state derivation.";
      `P
        "Each solve runs under a per-request budget (its own \
         $(b,--timeout)/$(b,--steps), else the daemon defaults) and replies \
         with status=complete or status=exhausted(...) plus hit/miss \
         provenance for every cached artifact it touched. Use $(b,phom \
         client) to talk to the daemon from the command line.";
    ]
  in
  let info =
    Cmd.info "phomd" ~version:Phom_server.Version.string ~doc ~man
  in
  let term =
    Term.(
      const run $ socket_arg $ listen_arg $ jobs_arg $ cache_mb_arg
      $ max_graph_mb_arg $ max_mat_mb_arg $ default_timeout_arg
      $ default_steps_arg $ max_conns_arg $ max_pending_arg
      $ idle_timeout_arg $ retry_after_arg $ drain_grace_arg
      $ fault_delay_arg $ quiet_arg $ metrics_dump_arg
      $ state_dir_arg $ fsync_arg $ snapshot_interval_arg)
  in
  exit (Cmd.eval (Cmd.v info term))
