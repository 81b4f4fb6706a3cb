module D = Phom_graph.Digraph
module Budget = Phom_graph.Budget
module Simmat = Phom_sim.Simmat
module Api = Phom.Api
module Pool = Phom_parallel.Pool
module Obs = Phom_obs.Obs

type config = {
  socket_path : string option;
  listen : string list;
      (** extra TCP listeners as [HOST:PORT] specs (port [0] = ephemeral);
          all listeners share one event loop and one catalog *)
  jobs : int;
  cache_bytes : int;
  max_graph_bytes : int;
  max_mat_bytes : int;
  default_timeout : float option;
  default_steps : int option;
  max_conns : int;
  max_pending : int;
  idle_timeout : float option;
  max_line_bytes : int;
  retry_after : float;
  drain_grace : float;
  state_dir : string option;
      (** durability root: snapshots and the recovery journal live here *)
  fsync : Journal.fsync;
  snapshot_interval : float;  (** seconds between periodic snapshots *)
}

let default_config =
  {
    socket_path = None;
    listen = [];
    jobs = 1;
    cache_bytes = 256 * 1024 * 1024;
    max_graph_bytes = 64 * 1024 * 1024;
    max_mat_bytes = 64 * 1024 * 1024;
    default_timeout = Some 5.;
    default_steps = None;
    max_conns = 64;
    max_pending = 32;
    idle_timeout = Some 300.;
    max_line_bytes = 8192;
    retry_after = 1.;
    drain_grace = 5.;
    state_dir = None;
    fsync = Journal.Interval;
    snapshot_interval = 60.;
  }

(* the durability side-car: where the snapshots and journal live, plus the
   recovery counters health and the metrics registry report *)
type persist = {
  snapshot_path : string;
  mutable journal : Journal.t option;  (** None if the open failed *)
  mutable snapshots : int;
  mutable snapshot_seconds : float;  (** duration of the last snapshot *)
  mutable snapshot_bytes : int;  (** size of the last snapshot *)
  mutable persist_errors : int;  (** failed snapshot/journal operations *)
  mutable recovered_graphs : int;
  mutable recovered_mats : int;
  mutable recovered_artifacts : int;
  mutable journal_replayed : int;  (** events replayed on top of a snapshot *)
  mutable quarantined : int;  (** corrupt records/lines skipped, never served *)
  mutable last_snapshot : float;
}

type state = {
  config : config;
  catalog : Catalog.t;
  pool : Pool.t;  (** borrowed; size 1 runs every job in the submitter *)
  persist : persist option;  (** None = ephemeral daemon (no --state-dir) *)
  mutable draining : bool;  (** the loop's drain, surfaced through health *)
  mutable requests : int;
  mutable busy_rejected : int;  (** admission-control sheds *)
  mutable idle_evicted : int;  (** stalled peers cut by the idle deadline *)
  mutable conns_accepted : int;
  mutable line_too_long : int;  (** bounded-reader rejections *)
  mutable drain_seconds : float;  (** wall time of the last graceful drain *)
}

(* the daemon metrics are probes over the state's own mutable fields: the
   loop keeps counting in plain fields (single-writer, the loop's domain)
   and the registry samples them at dump time; a fresh state re-points the
   probes at itself, so tests that build many daemons read the live one *)
let register_metrics st =
  let fi f = fun () -> float_of_int (f ()) in
  Obs.register_probe "phom_daemon_requests_total" (fi (fun () -> st.requests));
  Obs.register_probe "phom_daemon_connections_shed_total"
    (fi (fun () -> st.busy_rejected));
  Obs.register_probe "phom_daemon_connections_evicted_total"
    (fi (fun () -> st.idle_evicted));
  Obs.register_probe "phom_daemon_connections_accepted_total"
    (fi (fun () -> st.conns_accepted));
  Obs.register_probe "phom_daemon_line_too_long_total"
    (fi (fun () -> st.line_too_long));
  Obs.register_probe "phom_daemon_drain_seconds" (fun () -> st.drain_seconds);
  Obs.register_probe
    ~labels:[ ("version", Version.string) ]
    "phom_build_info"
    (fun () -> 1.);
  match st.persist with
  | None -> ()
  | Some p ->
      let journal_errors () =
        match p.journal with Some j -> Journal.errors j | None -> 0
      in
      let journal_events () =
        match p.journal with Some j -> Journal.appended j | None -> 0
      in
      Obs.register_probe "phom_persist_snapshot_total"
        (fi (fun () -> p.snapshots));
      Obs.register_probe "phom_persist_snapshot_seconds" (fun () ->
          p.snapshot_seconds);
      Obs.register_probe "phom_persist_snapshot_bytes"
        (fi (fun () -> p.snapshot_bytes));
      Obs.register_probe "phom_persist_errors_total"
        (fi (fun () -> p.persist_errors + journal_errors ()));
      Obs.register_probe "phom_journal_events_total" (fi journal_events);
      Obs.register_probe "phom_journal_replayed_total"
        (fi (fun () -> p.journal_replayed));
      Obs.register_probe "phom_recovery_quarantined_total"
        (fi (fun () -> p.quarantined))

(* ---- durability: recovery at start, snapshots while serving ---- *)

let snapshot_file = "state.snap"
let journal_file = "state.journal"

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

(* write a fresh snapshot of the whole catalog and rotate the journal it
   supersedes; a failed snapshot degrades health instead of raising *)
let snapshot_now st =
  match st.persist with
  | None -> ()
  | Some p ->
      let t0 = Unix.gettimeofday () in
      (match
         Persist.write_snapshot ~path:p.snapshot_path
           (Catalog.export st.catalog)
       with
      | Ok bytes ->
          p.snapshots <- p.snapshots + 1;
          p.snapshot_seconds <- Unix.gettimeofday () -. t0;
          p.snapshot_bytes <- bytes;
          Option.iter Journal.rotate p.journal
      | Error _ -> p.persist_errors <- p.persist_errors + 1);
      p.last_snapshot <- Unix.gettimeofday ()

(* the loop's periodic durability work: sync the journal (under the
   interval policy) and take a snapshot when the interval has elapsed *)
let persist_tick st =
  match st.persist with
  | None -> ()
  | Some p ->
      Option.iter Journal.flush p.journal;
      if
        Unix.gettimeofday () -. p.last_snapshot
        >= st.config.snapshot_interval
      then snapshot_now st

(* recovery: restore the latest snapshot (quarantining anything that fails
   its checksum or decode), replay the journal on top, then open the
   journal for appending. Raises [Sys_error] if the state dir is unusable —
   a daemon that looks healthy but silently persists nothing is worse than
   one that refuses to start. *)
let recover catalog ~dir ~fsync =
  (match mkdir_p dir with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
      raise
        (Sys_error
           (dir ^ ": cannot create state directory: " ^ Unix.error_message e)));
  let probe = Filename.concat dir ".writable" in
  (* a plain write, not write_file_atomic: the probe checks writability,
     durability fsyncs would only slow every restart down *)
  (match
     let oc = open_out probe in
     output_string oc "phomd\n";
     close_out oc;
     Sys.remove probe
   with
  | () -> ()
  | exception Sys_error e ->
      raise (Sys_error (dir ^ ": state directory is not writable: " ^ e)));
  let p =
    {
      snapshot_path = Filename.concat dir snapshot_file;
      journal = None;
      snapshots = 0;
      snapshot_seconds = 0.;
      snapshot_bytes = 0;
      persist_errors = 0;
      recovered_graphs = 0;
      recovered_mats = 0;
      recovered_artifacts = 0;
      journal_replayed = 0;
      quarantined = 0;
      last_snapshot = Unix.gettimeofday ();
    }
  in
  if Sys.file_exists p.snapshot_path then begin
    match Persist.read_snapshot ~path:p.snapshot_path with
    | Ok (records, quarantined) ->
        p.quarantined <- p.quarantined + quarantined;
        List.iter
          (fun (r : Persist.record) ->
            match Catalog.restore_record catalog r with
            | Ok () -> (
                match r.kind with
                | "graph" -> p.recovered_graphs <- p.recovered_graphs + 1
                | "mat" -> p.recovered_mats <- p.recovered_mats + 1
                | _ -> p.recovered_artifacts <- p.recovered_artifacts + 1)
            | Error _ -> p.quarantined <- p.quarantined + 1)
          records
    | Error _ ->
        (* unreadable or not a snapshot at all: one quarantined snapshot *)
        p.quarantined <- p.quarantined + 1
  end;
  let journal_path = Filename.concat dir journal_file in
  if Sys.file_exists journal_path then begin
    match Journal.replay ~path:journal_path with
    | Ok (events, quarantined) ->
        p.quarantined <- p.quarantined + quarantined;
        List.iter
          (fun e ->
            match Catalog.apply_event catalog e with
            | Ok () -> p.journal_replayed <- p.journal_replayed + 1
            | Error _ -> p.quarantined <- p.quarantined + 1)
          events
    | Error _ -> p.quarantined <- p.quarantined + 1
  end;
  (match Journal.open_append ~path:journal_path ~fsync with
  | Ok j -> p.journal <- Some j
  | Error _ -> p.persist_errors <- p.persist_errors + 1);
  p

(* a size-1 pool runs every job submitted to it in the submitter: a state
   made without a pool executes each request on the caller's domain *)
let sequential_pool = Pool.create ~domains:1 ()

let make_state ?(pool = sequential_pool) config =
  let catalog =
    Catalog.create ~max_graph_bytes:config.max_graph_bytes
      ~max_mat_bytes:config.max_mat_bytes ~cache_bytes:config.cache_bytes ()
  in
  let persist =
    Option.map
      (fun dir -> recover catalog ~dir ~fsync:config.fsync)
      config.state_dir
  in
  let st =
    {
      config;
      catalog;
      pool;
      persist;
      draining = false;
      requests = 0;
      busy_rejected = 0;
      idle_evicted = 0;
      conns_accepted = 0;
      line_too_long = 0;
      drain_seconds = 0.;
    }
  in
  (* the journal hook goes live only after recovery, so replay does not
     journal itself; the fresh snapshot then supersedes (and rotates away)
     everything the old journal recorded. A clean boot — snapshot present,
     nothing replayed, nothing quarantined — skips the rewrite: the on-disk
     snapshot is already exact, and rewriting it would burn the restart
     latency recovery exists to save *)
  (match persist with
  | Some { journal = Some j; _ } ->
      Catalog.set_on_event catalog (Some (fun e -> Journal.append j e))
  | _ -> ());
  (match persist with
  | None -> ()
  | Some p ->
      if
        p.journal_replayed > 0 || p.quarantined > 0
        || not (Sys.file_exists p.snapshot_path)
      then snapshot_now st);
  register_metrics st;
  st

(* final snapshot + journal close; the socket loop calls this as the last
   act of a drain, embedders (tests, the bench) call it directly *)
let close_state st =
  match st.persist with
  | None -> ()
  | Some p ->
      snapshot_now st;
      Catalog.set_on_event st.catalog None;
      Option.iter Journal.close p.journal;
      p.journal <- None

let requests_served st = st.requests

(* ---- replies ---- *)

let ok fmt = Printf.ksprintf (fun s -> "ok " ^ s) fmt
let error fmt = Printf.ksprintf (fun s -> "error " ^ s) fmt

let busy_reply st = error "busy retry-after=%g" st.config.retry_after

let status_token = function
  | Budget.Complete -> "complete"
  | Budget.Exhausted reason ->
      Printf.sprintf "exhausted(%s)" (Budget.string_of_reason reason)

let list_reply st =
  let graphs, mats = Catalog.list st.catalog in
  let g_item (name, g) =
    Printf.sprintf "%s:%dn/%de" name (D.n g) (D.nb_edges g)
  in
  let m_item (name, m) =
    Printf.sprintf "%s:%dx%d" name (Simmat.n1 m) (Simmat.n2 m)
  in
  ok "graphs=[%s] mats=[%s]"
    (String.concat "," (List.map g_item graphs))
    (String.concat "," (List.map m_item mats))

(* Prometheus text over the wire: a header line carrying the line count, so
   single-line clients know how much more to read, then the registry dump.
   The daemon-family values come from probes over [st]'s own fields and the
   cache family from the Lru's own atomics, so this reply and per-reply
   provenance can never disagree. [_st] keeps the probes' target alive. *)
let stats_reply _st =
  let lines = Obs.dump_lines () in
  String.concat "\n" (ok "stats %d" (List.length lines) :: lines)

(* readiness in one line of k=v counters: [ready] serves normally,
   [degraded] serves but has quarantined state or persistence failures
   behind it, [draining] answers but is on its way down *)
let health_reply st =
  let get f = match st.persist with None -> 0 | Some p -> f p in
  let journal_errors =
    match st.persist with
    | Some { journal = Some j; _ } -> Journal.errors j
    | _ -> 0
  in
  let quarantined = get (fun p -> p.quarantined) in
  let persist_errors = get (fun p -> p.persist_errors) + journal_errors in
  let state =
    if st.draining then "draining"
    else if quarantined > 0 || persist_errors > 0 then "degraded"
    else "ready"
  in
  ok
    "health state=%s persist=%b snapshots=%d snapshot_bytes=%d \
     journal_events=%d journal_replayed=%d recovered_graphs=%d \
     recovered_mats=%d recovered_artifacts=%d quarantined=%d \
     persist_errors=%d requests=%d"
    state
    (Option.is_some st.persist)
    (get (fun p -> p.snapshots))
    (get (fun p -> p.snapshot_bytes))
    (get (fun p ->
         match p.journal with Some j -> Journal.appended j | None -> 0))
    (get (fun p -> p.journal_replayed))
    (get (fun p -> p.recovered_graphs))
    (get (fun p -> p.recovered_mats))
    (get (fun p -> p.recovered_artifacts))
    quarantined persist_errors st.requests

(* ---- solve / count ---- *)

let budget_for st ~timeout ~steps =
  let timeout =
    match timeout with Some _ as t -> t | None -> st.config.default_timeout
  in
  let steps =
    match steps with Some _ as n -> n | None -> st.config.default_steps
  in
  (* the drain path cancels in-flight requests from the loop's domain while
     a pool worker is ticking the budget, so cancellation must ride the
     budget's hook over an atomic rather than Budget.cancel's plain field *)
  let flag = Atomic.make false in
  let budget =
    Budget.create ?timeout ?steps ~cancel:(fun () -> Atomic.get flag) ()
  in
  (budget, fun () -> Atomic.set flag true)

(* the warm-start store is keyed by request shape WITHOUT content
   signatures: that is the point — after an edit the shape is unchanged,
   so the previous answer is recalled and repaired into a seed *)
let solve_key (s : Protocol.solve) =
  Printf.sprintf "%s/%s/%s/%s/%h/%s"
    (Protocol.problem_token s.Protocol.problem)
    s.Protocol.g1 s.Protocol.g2
    (Catalog.sim_to_string s.Protocol.sim)
    s.Protocol.xi
    (match s.Protocol.hops with None -> "full" | Some k -> string_of_int k)

(* a request as [prepare] stages it: a reply made inline on the loop's
   domain, or a job — [run] computes the reply on a pool worker, [cancel]
   budget-trips it from outside (a drain, a vanished peer) *)
type job = { cancel : unit -> unit; run : unit -> string }
type prepared = Reply of string | Job of job

(* the front every engine request shares, split over the two phases. At
   receipt, on the loop's domain: pin the names and anchor the budget.
   Pinning at receipt is the edit/unload race fix: the job computes
   against the pinned snapshot and keys artifacts against its signatures,
   so a catalog mutation mid-flight makes lookups miss rather than serve
   mismatched state. In the job: the artifact chain, then [tail] — the
   engine and its reply. *)
let engine_job st ~g1 ~g2 ~sim ~hops ~xi ~timeout ~steps tail =
  let ( let* ) r f =
    match r with Error e -> Reply (error "%s" e) | Ok v -> f v
  in
  let* p1 = Catalog.pin st.catalog g1 in
  let* p2 = Catalog.pin st.catalog g2 in
  let* matv = Catalog.pin_sim st.catalog sim in
  (* the budget is anchored at request receipt: artifact building, solving
     and reply formatting all draw on the same allowance *)
  let budget, cancel = budget_for st ~timeout ~steps in
  let run () =
    Faults.solve_delay ();
    match
      Catalog.instance_pinned ~budget ?matv st.catalog ~p1 ~p2 ~sim ~hops ~xi
    with
    | Error e -> error "%s" e
    | Ok (t, prov) -> tail ~budget ~p1 ~p2 ~matv t prov
  in
  Job { cancel; run }

(* fast paths can finish between poll points; a final poll makes the
   deadline (and a drain cancellation) part of the reply contract *)
let final_status budget = function
  | Budget.Exhausted _ as s -> status_token s
  | Budget.Complete ->
      status_token
        (if Budget.poll budget then Budget.Complete else Budget.status budget)

let cache_token prov =
  String.concat ","
    (List.map (fun (k, p) -> k ^ ":" ^ Catalog.provenance_name p) prov)

let prepare_solve st (s : Protocol.solve) =
  let wkey = solve_key s in
  let warm_start = Catalog.recall_solution st.catalog ~key:wkey in
  engine_job st ~g1:s.Protocol.g1 ~g2:s.Protocol.g2 ~sim:s.Protocol.sim
    ~hops:s.Protocol.hops ~xi:s.Protocol.xi ~timeout:s.Protocol.timeout
    ~steps:s.Protocol.steps
    (fun ~budget ~p1 ~p2:_ ~matv:_ t prov ->
      let r =
        Api.solve_within ~algorithm:s.Protocol.algorithm
          ~partition:s.Protocol.partition ~compress:s.Protocol.compress
          ~budget ?warm_start s.Protocol.problem t
      in
      Catalog.remember_solution st.catalog ~key:wkey ~g1:s.Protocol.g1
        ~g2:s.Protocol.g2 r.Api.mapping;
      ok
        "solve problem=%s quality=%.4f mapped=%d/%d matched=%b status=%s \
         cache=%s"
        (Api.problem_name r.Api.problem)
        r.Api.quality
        (Phom.Mapping.size r.Api.mapping)
        (D.n p1.Catalog.pin_graph) (Api.matches r)
        (final_status budget r.Api.status)
        (cache_token prov))

(* a count ends in the count artifact itself: the DP runs on a miss *)
let prepare_count st (c : Protocol.count) =
  engine_job st ~g1:c.Protocol.g1 ~g2:c.Protocol.g2 ~sim:c.Protocol.sim
    ~hops:c.Protocol.hops ~xi:c.Protocol.xi ~timeout:c.Protocol.timeout
    ~steps:c.Protocol.steps
    (fun ~budget ~p1 ~p2 ~matv t prov ->
      let r, count_prov =
        Catalog.count_pinned ~budget ?matv st.catalog ~instance:t ~p1 ~p2
          ~sim:c.Protocol.sim ~hops:c.Protocol.hops
      in
      ok "count value=%d exact=%b width=%d status=%s cache=%s" r.Phom.Dp.count
        r.Phom.Dp.exact r.Phom.Dp.width
        (final_status budget r.Phom.Dp.status)
        (cache_token (prov @ [ ("count", count_prov) ])))

(* only solve and count become jobs; every probe and control verb (health,
   stats, ping, version, list, load/unload, edits) is answered inline, so
   a router's health probe is never queued behind a saturated worker pool
   — a replica with all workers busy still reports [ready] *)
let dispatch st req =
  match req with
  | Protocol.Version ->
      Reply (ok "phomd %s protocol %d" Version.string Version.protocol)
  | Protocol.Ping -> Reply (ok "pong")
  | Protocol.Health ->
      (* the flap seam simulates a replica whose probe endpoint is sick
         while its data plane still works — what drives a router's breaker
         through open/half-open without killing the process *)
      Reply
        (if Faults.health_flap () then error "unavailable" else health_reply st)
  | Protocol.List -> Reply (list_reply st)
  | Protocol.Stats -> Reply (stats_reply st)
  | Protocol.Load_graph { name; path } ->
      Reply
        (match Catalog.load_graph st.catalog ~name ~path with
        | Ok g ->
            ok "loaded graph %s nodes=%d edges=%d" name (D.n g) (D.nb_edges g)
        | Error e -> error "%s" e)
  | Protocol.Load_mat { name; path } ->
      Reply
        (match Catalog.load_mat st.catalog ~name ~path with
        | Ok m -> ok "loaded mat %s dims=%dx%d" name (Simmat.n1 m) (Simmat.n2 m)
        | Error e -> error "%s" e)
  | Protocol.Unload name ->
      Reply
        (match Catalog.unload st.catalog name with
        | Ok artifacts -> ok "unloaded %s artifacts=%d" name artifacts
        | Error e -> error "%s" e)
  | Protocol.Edit e ->
      let op_token = match e.Protocol.op with `Add -> "add" | `Del -> "del" in
      Reply
        (match
           Catalog.edit ?expect_crc:e.Protocol.crc st.catalog
             ~name:e.Protocol.name ~op:e.Protocol.op ~v:e.Protocol.v
             ~w:e.Protocol.w
         with
        | Ok r ->
            (* [crc=] is the post-edit content signature: a client (or the
               router's replay log) hands it back as [--crc] to make
               re-delivery idempotent; [closures=] counts the cached closure
               matrices carried across the edit and re-keyed *)
            ok "edited %s op=%s v=%d w=%d edges=%d crc=%s applied=%d closures=%d"
              e.Protocol.name op_token e.Protocol.v e.Protocol.w r.Catalog.edges
              r.Catalog.crc
              (if r.Catalog.applied then 1 else 0)
              r.Catalog.closures
        | Error e -> error "%s" e)
  | Protocol.Solve s -> prepare_solve st s
  | Protocol.Count c -> prepare_count st c
  | Protocol.Shutdown -> Reply (ok "shutting down")
  | Protocol.Quit -> Reply (ok "bye")

(* the one exception-to-reply mapping: user-level errors keep their
   message; any other exception from a handler or a job must neither kill
   the daemon nor leak internals — it becomes an opaque [error internal],
   counted by exception constructor so [stats] shows what was swallowed *)
let guard f =
  Protocol.sanitize
    (try f () with
    | Invalid_argument m | Failure m | Sys_error m -> error "%s" m
    | e ->
        Obs.incr
          (Obs.counter
             ~labels:[ ("exn", Printexc.exn_slot_name e) ]
             "phom_daemon_internal_errors_total");
        error "internal")

(* the request pipeline's entry, shared by the socket loop and [execute]:
   the one place a request is counted and meets the fault hook, and where
   the guard and sanitizer go around its inline reply or its job's run *)
let prepare st req =
  st.requests <- st.requests + 1;
  match
    Faults.execute_hook ();
    dispatch st req
  with
  | Reply reply -> Reply (guard (fun () -> reply))
  | Job j -> Job { j with run = (fun () -> guard j.run) }
  | exception e -> Reply (guard (fun () -> raise e))

let next_of = function
  | Protocol.Shutdown -> `Shutdown
  | Protocol.Quit -> `Quit
  | _ -> `Continue

let execute st req =
  let reply =
    match prepare st req with
    | Reply reply -> reply
    | Job j -> Pool.await (Pool.submit st.pool j.run)
  in
  (reply, next_of req)

(* ---- listeners ---- *)

(* a connect-probe distinguishes a crashed daemon's leftover socket from a
   live one: only a live daemon answers ping (any reply counts — even an
   older daemon's unknown-command error proves someone is listening) *)
let socket_in_use path =
  match Client.connect ~timeout:1.0 (Unix.ADDR_UNIX path) with
  | Error _ -> false
  | Ok conn ->
      let alive = Result.is_ok (Client.send ~timeout:1.0 conn "ping") in
      Client.close conn;
      alive

let listen_unix path =
  (* refuse to clobber a foreign file or a live daemon's socket; replace
     only a socket nobody answers on (the kill -9 leftover) *)
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
      if socket_in_use path then
        invalid_arg (path ^ ": a live daemon is already listening here")
      else Unix.unlink path
  | _ -> invalid_arg (path ^ ": exists and is not a socket")
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  (try
     (* the socket must not be world-connectable regardless of the umask
        the daemon inherited; chmod after bind pins it to owner-only *)
     Unix.chmod path 0o600;
     Unix.listen fd 16
   with e ->
     (* don't leave a half-made socket behind *)
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (try Unix.unlink path with Unix.Unix_error _ -> ());
     raise e);
  (fd, path)

let listen_tcp_addr ip port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (ip, port));
    Unix.listen fd 16;
    let bound =
      (* getsockname, not the request: port 0 asks the kernel for an
         ephemeral port and the banner must name the one it granted *)
      match Unix.getsockname fd with
      | Unix.ADDR_INET (addr, port) ->
          Printf.sprintf "%s:%d" (Unix.string_of_inet_addr addr) port
      | Unix.ADDR_UNIX p -> p
    in
    (fd, bound)
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

(* "HOST:PORT" (numeric IP or resolvable name; "" or "*" = all interfaces)
   for --listen; port 0 binds an ephemeral port announced via [ready] *)
let parse_listen spec =
  match String.rindex_opt spec ':' with
  | None -> invalid_arg (spec ^ ": expected HOST:PORT")
  | Some i -> (
      let host = String.sub spec 0 i in
      let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt rest with
      | Some port when port >= 0 && port <= 65535 ->
          let ip =
            if host = "" || host = "*" then Unix.inet_addr_any
            else
              match Unix.inet_addr_of_string host with
              | ip -> ip
              | exception Failure _ -> (
                  match Unix.gethostbyname host with
                  | { Unix.h_addr_list = [||]; _ } ->
                      invalid_arg (spec ^ ": no address for host " ^ host)
                  | h -> h.Unix.h_addr_list.(0)
                  | exception Not_found ->
                      invalid_arg (spec ^ ": unknown host " ^ host))
          in
          (ip, port)
      | _ -> invalid_arg (spec ^ ": port out of range"))

(* ---- the multiplexed socket loop ---- *)

type inflight = {
  result : string option Atomic.t;
      (* the reply, published by the worker before it wakes the loop, so a
         woken loop never sleeps a poll interval on a job already done *)
  cancel : unit -> unit;
}

type cstate = {
  c : Conn.t;
  mutable job : inflight option;
  mutable dead : bool;  (* peer vanished while a job was in flight *)
  reject : bool;  (* admission-control shed: busy reply then close *)
}

let serve ?(ready = fun _ -> ()) config =
  if config.jobs < 1 then invalid_arg "Daemon.serve: jobs must be >= 1";
  if config.socket_path = None && config.listen = [] then
    invalid_arg "Daemon.serve: no listener configured (socket or TCP)";
  if config.max_conns < 1 then invalid_arg "Daemon.serve: max_conns must be >= 1";
  if config.max_pending < 1 then
    invalid_arg "Daemon.serve: max_pending must be >= 1";
  if config.max_line_bytes < 1 then
    invalid_arg "Daemon.serve: max_line_bytes must be >= 1";
  (* a dying client must not kill the daemon with SIGPIPE; writes then fail
     with EPIPE, which the connection machinery absorbs *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* the --listen specs must parse before any descriptor is bound, so a
     typo'd endpoint can't leave half the fleet's listeners behind *)
  let extra_addrs = List.map parse_listen config.listen in
  let unix_listener = Option.map listen_unix config.socket_path in
  let tcp_listeners =
    let opened = ref [] in
    try
      let tcp addr =
        let l = listen_tcp_addr (fst addr) (snd addr) in
        opened := l :: !opened;
        l
      in
      List.map tcp extra_addrs
    with e ->
      (* don't leak the bound unix socket (or earlier TCP binds) when a
         later TCP bind fails *)
      List.iter
        (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
        !opened;
      Option.iter
        (fun (fd, path) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          try Unix.unlink path with Unix.Unix_error _ -> ())
        unix_listener;
      raise e
  in
  let listeners =
    (match unix_listener with
    | Some (fd, p) -> [ (fd, p, Faults.Unix_sock) ]
    | None -> [])
    @ List.map (fun (fd, b) -> (fd, b, Faults.Tcp)) tcp_listeners
  in
  List.iter
    (fun (fd, _, _) -> try Unix.set_nonblock fd with Unix.Unix_error _ -> ())
    listeners;
  (* self-pipe: pool workers (job done) and signal handlers (drain) wake
     the select loop without a race against its blocking wait *)
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let wake () =
    try ignore (Unix.write wake_w (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()
  in
  let drain_requested = Atomic.make false in
  let install signal =
    match
      Sys.signal signal
        (Sys.Signal_handle
           (fun _ ->
             Atomic.set drain_requested true;
             wake ()))
    with
    | old -> Some (signal, old)
    | exception (Invalid_argument _ | Sys_error _) -> None
  in
  let installed = List.filter_map install [ Sys.sigterm; Sys.sigint ] in
  let finish () =
    List.iter
      (fun (s, old) ->
        try Sys.set_signal s old with Invalid_argument _ | Sys_error _ -> ())
      installed;
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ wake_r; wake_w ];
    List.iter
      (fun (fd, _, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
      listeners;
    Option.iter
      (fun (_, path) -> try Unix.unlink path with Unix.Unix_error _ -> ())
      unix_listener
  in
  Fun.protect ~finally:finish (fun () ->
      Pool.with_pool ~domains:config.jobs (fun pool ->
        let st = make_state ~pool config in
        ready (List.map (fun (_, b, _) -> b) listeners);
        let listener_fds = List.map (fun (fd, _, k) -> (fd, k)) listeners in
        let conns : (Unix.file_descr, cstate) Hashtbl.t = Hashtbl.create 32 in
        (* mutation discipline: the table is only ever modified outside
           iteration — iterations run over this snapshot *)
        let snapshot () = Hashtbl.fold (fun _ cs acc -> cs :: acc) conns [] in
        let in_flight = ref 0 in
        let accepting = ref true in
        let draining = ref false in
        let drain_deadline = ref infinity in
        let live_count () =
          Hashtbl.fold
            (fun _ cs n ->
              if (not cs.reject) && Conn.is_open cs.c then n + 1 else n)
            conns 0
        in
        Obs.register_probe "phom_daemon_connections_open" (fun () ->
            float_of_int (live_count ()));
        let sweep_closed () =
          let gone =
            Hashtbl.fold
              (fun fd cs acc -> if Conn.is_open cs.c then acc else fd :: acc)
              conns []
          in
          List.iter (Hashtbl.remove conns) gone
        in
        let send cs reply =
          Conn.send_line cs.c reply;
          Conn.handle_write cs.c
        in
        let drain_started = ref nan in
        let start_drain () =
          if not !draining then begin
            draining := true;
            st.draining <- true;
            accepting := false;
            drain_started := Unix.gettimeofday ();
            drain_deadline := !drain_started +. config.drain_grace;
            (* budget-trip the in-flight solves (each still flushes its
               best-so-far anytime reply) and flush-close everyone else *)
            List.iter
              (fun cs ->
                match cs.job with
                | Some j -> j.cancel ()
                | None -> Conn.close_after_flush cs.c)
              (snapshot ())
          end
        in
        let rec process_conn cs =
          if
            Conn.is_open cs.c
            && (not (Conn.is_draining cs.c))
            && cs.job = None && (not cs.dead) && (not !draining)
            && not cs.reject
          then
            match Conn.next_line cs.c with
            | None -> ()
            | Some line ->
                let line = String.trim line in
                if line = "" then process_conn cs
                else begin
                  Conn.touch cs.c ~now:(Unix.gettimeofday ());
                  (match Protocol.parse line with
                  | Error e -> send cs (Protocol.sanitize ("error " ^ e))
                  | Ok req -> (
                      match prepare st req with
                      | Reply reply -> (
                          send cs reply;
                          match next_of req with
                          | `Continue -> ()
                          | `Quit -> Conn.close_after_flush cs.c
                          | `Shutdown ->
                              Conn.close_after_flush cs.c;
                              start_drain ())
                      | Job { cancel; run } -> (
                          if !in_flight >= config.max_pending then begin
                            (* pending-solve queue is full: shed with a
                               hint instead of queueing unboundedly *)
                            st.busy_rejected <- st.busy_rejected + 1;
                            send cs (busy_reply st)
                          end
                          else
                            let result = Atomic.make None in
                            ignore
                              (Pool.submit st.pool (fun () ->
                                   Atomic.set result (Some (run ()));
                                   wake ()));
                            match Atomic.get result with
                            | Some reply ->
                                (* done before [submit] returned — always
                                   so on a size-1 pool: answered now, never
                                   pending *)
                                send cs reply
                            | None ->
                                incr in_flight;
                                cs.job <- Some { result; cancel })));
                  process_conn cs
                end
        in
        let finish_job cs reply =
          cs.job <- None;
          decr in_flight;
          if cs.dead || not (Conn.is_open cs.c) then Conn.close cs.c
          else begin
            send cs reply;
            Conn.touch cs.c ~now:(Unix.gettimeofday ());
            if !draining then Conn.close_after_flush cs.c else process_conn cs
          end
        in
        let poll_jobs () =
          List.iter
            (fun cs ->
              match cs.job with
              | None -> ()
              | Some j -> Option.iter (finish_job cs) (Atomic.get j.result))
            (snapshot ())
        in
        let evict_stalled now =
          List.iter
            (fun cs ->
              if Conn.is_open cs.c && cs.job = None && Conn.expired cs.c ~now
              then
                if Conn.is_draining cs.c || cs.reject || cs.dead then
                  (* already told to go away and still not reading *)
                  Conn.close cs.c
                else begin
                  st.idle_evicted <- st.idle_evicted + 1;
                  send cs "error idle-timeout";
                  Conn.close_after_flush cs.c
                end)
            (snapshot ())
        in
        let accept_from (lfd, kind) =
          let continue = ref true in
          while !continue do
            match Faults.accept ~kind lfd with
            | exception
                Unix.Unix_error
                  ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
                continue := false
            | exception Unix.Unix_error (_, _, _) ->
                (* a transient accept failure (ECONNABORTED, EMFILE, an
                   injected fault) must not kill the daemon *)
                continue := false
            | afd, _ ->
                (try Unix.set_nonblock afd with Unix.Unix_error _ -> ());
                (* one-line replies: don't let Nagle hold a router's answer
                   hostage to the client's delayed ACK *)
                if kind = Faults.Tcp then (
                  try Unix.setsockopt afd Unix.TCP_NODELAY true
                  with Unix.Unix_error _ | Invalid_argument _ -> ());
                let now = Unix.gettimeofday () in
                if not !accepting then begin
                  try Unix.close afd with Unix.Unix_error _ -> ()
                end
                else if live_count () >= config.max_conns then begin
                  (* admission control: shed the connection with a retry
                     hint and a clean close *)
                  st.busy_rejected <- st.busy_rejected + 1;
                  let c =
                    Conn.create ~transport:kind ~max_line:config.max_line_bytes
                      ~idle_timeout:(Some (Float.max 1. config.retry_after))
                      ~now afd
                  in
                  let cs = { c; job = None; dead = false; reject = true } in
                  Conn.send_line c (busy_reply st);
                  Conn.close_after_flush c;
                  Conn.handle_write c;
                  if Conn.is_open c then Hashtbl.replace conns afd cs
                end
                else begin
                  st.conns_accepted <- st.conns_accepted + 1;
                  let c =
                    Conn.create ~transport:kind ~max_line:config.max_line_bytes
                      ~idle_timeout:config.idle_timeout ~now afd
                  in
                  Hashtbl.replace conns afd
                    { c; job = None; dead = false; reject = false }
                end
          done
        in
        let on_readable cs =
          match Conn.handle_read cs.c with
          | Conn.Progress -> process_conn cs
          | Conn.Line_too_long ->
              (* bounded reader: reject instead of buffering unboundedly *)
              st.line_too_long <- st.line_too_long + 1;
              send cs "error line-too-long";
              Conn.close_after_flush cs.c
          | Conn.Peer_closed -> (
              match cs.job with
              | Some j ->
                  (* mid-solve disconnect: budget-trip the job, let it
                     finish on the pool, discard its reply *)
                  j.cancel ();
                  cs.dead <- true
              | None -> Conn.close cs.c)
        in
        let drain_wake_pipe () =
          let b = Bytes.create 64 in
          let rec go () =
            match Unix.read wake_r b 0 64 with
            | n when n > 0 -> go ()
            | _ -> ()
            | exception Unix.Unix_error _ -> ()
          in
          go ()
        in
        let rec loop () =
          if Atomic.get drain_requested then start_drain ();
          sweep_closed ();
          if !draining && Hashtbl.length conns = 0 then ()
          else begin
            let now = Unix.gettimeofday () in
            if !draining && now >= !drain_deadline then begin
              (* drain grace expired: cut the stragglers; in-flight
                 futures are finished by the pool's own shutdown *)
              List.iter (fun cs -> Conn.close cs.c) (snapshot ());
              sweep_closed ();
              loop ()
            end
            else begin
              let cstates = snapshot () in
              let reads =
                (wake_r
                :: (if !accepting then List.map fst listener_fds else []))
                @ List.filter_map
                    (fun cs ->
                      if (not cs.dead) && Conn.want_read cs.c then
                        Some (Conn.fd cs.c)
                      else None)
                    cstates
              in
              let writes =
                List.filter_map
                  (fun cs ->
                    if Conn.want_write cs.c then Some (Conn.fd cs.c) else None)
                  cstates
              in
              let timeout =
                if !in_flight > 0 then 0.05
                else begin
                  let next =
                    List.fold_left
                      (fun acc cs ->
                        if Conn.is_open cs.c && cs.job = None then
                          Float.min acc (Conn.deadline cs.c)
                        else acc)
                      (if !draining then !drain_deadline else infinity)
                      cstates
                  in
                  if next = infinity then 1.0
                  else Float.min 1.0 (Float.max 0.005 (next -. now))
                end
              in
              (match Unix.select reads writes [] timeout with
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
              | exception Unix.Unix_error (Unix.EBADF, _, _) ->
                  (* a descriptor closed under us; the sweep catches it *)
                  ()
              | readable, writable, _ ->
                  if List.mem wake_r readable then drain_wake_pipe ();
                  if !accepting then
                    List.iter
                      (fun (lfd, kind) ->
                        if List.mem lfd readable then accept_from (lfd, kind))
                      listener_fds;
                  List.iter
                    (fun cs ->
                      if Conn.is_open cs.c then begin
                        if List.mem (Conn.fd cs.c) writable then
                          Conn.handle_write cs.c;
                        if (not cs.dead) && List.mem (Conn.fd cs.c) readable
                        then on_readable cs
                      end)
                    cstates);
              poll_jobs ();
              evict_stalled (Unix.gettimeofday ());
              persist_tick st;
              loop ()
            end
          end
        in
        loop ();
        (* the drain's last act: capture the warm state so the next start
           is a warm start *)
        close_state st;
        if not (Float.is_nan !drain_started) then
          st.drain_seconds <- Unix.gettimeofday () -. !drain_started))
