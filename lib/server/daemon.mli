(** The phomd matching service: a resident process owning warm state (a
    {!Catalog} with its artifact cache) and a select-multiplexed request
    loop serving many connections over a shared {!Phom_parallel.Pool}.

    Every request takes one pipeline, whether it arrives over a socket or
    through {!execute}: it is counted, passes the
    {!Faults.set_execute_hook} seam, and is staged. Probe and control verbs
    are answered inline. [solve] and [count] pin their names and anchor a
    per-request {!Phom_graph.Budget} (defaulting to the daemon's
    [default_timeout]/[default_steps]) at receipt, then become one pool job
    ({!Phom_parallel.Pool.submit}) that derives the instance through
    {!Catalog.instance_pinned} and runs the engine. One exception guard and
    {!Protocol.sanitize} wrap the inline reply and the job's alike. The
    socket loop polls the job; {!execute} awaits it. A slow query returns
    an anytime best-so-far answer instead of starving the loop, and the
    reply carries the [complete]/[exhausted(...)] status plus cache-hit
    provenance for every artifact it touched.

    The loop never blocks on any single peer: sockets are non-blocking,
    request lines are read through a bounded reader (an over-long line gets
    [error line-too-long] and a close), stalled peers are evicted at their
    idle deadline, and admission control sheds excess connections and
    excess pending solves with [error busy retry-after=<s>]. SIGTERM and
    SIGINT start a graceful drain: accepting stops, in-flight solves are
    budget-tripped (their anytime replies still flush), and the socket path
    is unlinked before {!serve} returns. *)

type config = {
  socket_path : string option;  (** Unix-domain listening socket *)
  tcp_port : int option;
      (** optional TCP listener on 127.0.0.1; [Some 0] picks an ephemeral
          port (reported through [ready]) *)
  listen : string list;
      (** extra TCP listeners as [HOST:PORT] specs ([""] or ["*"] as host =
          all interfaces; port [0] = ephemeral, reported through [ready]).
          All listeners — Unix, loopback TCP and these — feed one event
          loop over one catalog; this is the fleet-facing transport the
          replica router dials. *)
  jobs : int;
      (** domains in the pool, the event loop's own included. The loop
          never runs a solve, so [jobs - 1] workers run solves and their
          fan-out: [jobs = 2] serves one solve at a time. [jobs = 1] runs
          each solve on the loop's domain, on the sequential code path. *)
  cache_bytes : int;  (** artifact-cache capacity *)
  max_graph_bytes : int;
  max_mat_bytes : int;
  default_timeout : float option;
      (** per-request wall-clock budget when the request names none *)
  default_steps : int option;
  max_conns : int;
      (** admission control: connections beyond this are answered
          [error busy retry-after=<s>] and closed *)
  max_pending : int;
      (** solves in flight beyond this are shed with the same busy reply
          (the connection stays open) *)
  idle_timeout : float option;
      (** a connection idle past this many seconds is evicted with
          [error idle-timeout]; [None] = never evict *)
  max_line_bytes : int;
      (** bound on one request line; longer gets [error line-too-long] *)
  retry_after : float;  (** the hint carried by busy replies, seconds *)
  drain_grace : float;
      (** how long a drain waits for in-flight replies to flush before
          cutting stragglers *)
  state_dir : string option;
      (** durability root. [Some dir] makes the daemon crash-durable: on
          start it recovers the latest checksummed {!Persist} snapshot from
          [dir], replays the {!Journal} on top (quarantining anything that
          fails a checksum or decode — counted, never served), then keeps
          journaling and snapshotting while serving. [None] (the default)
          is the historical ephemeral daemon. *)
  fsync : Journal.fsync;  (** journal durability policy *)
  snapshot_interval : float;  (** seconds between periodic snapshots *)
}

val default_config : config
(** No listeners, [jobs = 1], 256 MiB cache, 64 MiB file caps, 5 s default
    timeout, no step cap; 64 connections, 32 pending solves, 300 s idle
    timeout, 8 KiB line bound, 1 s retry hint, 5 s drain grace; no state
    dir, [Interval] fsync, 60 s snapshot interval. *)

(** {1 Request execution (socket-free)}

    Exposed so tests and in-process embeddings can drive the daemon without
    a socket. *)

type state

val make_state : ?pool:Phom_parallel.Pool.t -> config -> state
(** [pool] runs the state's solve and count jobs. It is borrowed, not
    owned: the caller keeps control of it and shuts it down. Without one,
    the state uses a size-1 pool, so every job runs in the caller of
    {!execute}, on the sequential code path. {!serve} builds its state
    over a pool of [config.jobs] domains.

    When [config.state_dir] is set, this is also the recovery point: the
    latest snapshot is restored (every record checksum-verified; failures
    quarantined), the journal replayed on top, and the journal hooked up
    for appending — so a state built over a previous run's dir starts
    warm. A fresh post-recovery snapshot is written only when recovery
    changed anything (journal events replayed, records quarantined, or no
    snapshot yet); a clean boot is read-only.

    @raise Sys_error if the state dir cannot be created or written —
    failing fast beats a daemon that silently persists nothing. *)

val close_state : state -> unit
(** Final snapshot plus journal close for an embedded state (no-op without
    a state dir). {!serve} calls this itself at the end of its drain. *)

val requests_served : state -> int

val execute : state -> Protocol.request -> string * [ `Continue | `Quit | `Shutdown ]
(** Run one request through the socket loop's pipeline and return the
    one-line reply (without the trailing newline) plus what the connection
    should do next. A solve or count is submitted to the state's pool and
    awaited (tests and the bench use this path), so the reply is the one a
    daemon serving the same state would send. The request counts toward
    {!requests_served}. Never raises: user-level errors
    ([Invalid_argument], [Failure], [Sys_error]) keep their message; any
    other exception becomes an opaque [error internal] reply. Every reply
    passes {!Protocol.sanitize}. *)

(** {1 The socket loop} *)

val listen_unix : string -> Unix.file_descr * string
(** Bind and listen on a Unix-domain socket path with owner-only (0600)
    permissions, independent of the process umask. An existing socket at
    the path is connect-probed first: if a live daemon answers [ping]
    there, binding is refused ([Invalid_argument]); a socket nobody
    answers on — the leftover of a [kill -9] — is removed and replaced.
    Any other existing file is refused ([Invalid_argument]). If binding or
    listening fails partway, the descriptor is closed and the path
    unlinked before the exception propagates. Exposed for tests. *)

val serve : ?ready:(string list -> unit) -> config -> unit
(** Listen on the configured sockets and answer requests until a
    [shutdown] request or a SIGTERM/SIGINT arrives; then drain — stop
    accepting, budget-trip in-flight solves, flush their replies — and
    close every listener, unlink the Unix socket path, and return. [ready]
    is called once with a human-readable description of each bound
    listener (e.g. ["phomd.sock"], ["127.0.0.1:4271"]) after listening has
    started — the daemon binary prints these as its startup banner, and
    tests use the callback to learn an ephemeral TCP port.

    Connections are multiplexed: a peer holding its line open, trickling
    bytes, or never reading its reply delays nobody else. Each parsed
    request is answered with exactly one line.

    @raise Invalid_argument if the config names no listener, [jobs < 1],
    [max_conns < 1], [max_pending < 1] or [max_line_bytes < 1]. *)
