(** Replica-aware request router: the client half of the fault-tolerant
    fleet tier.

    A fleet is a static set of phomd replicas, each listening on TCP
    ({!Daemon.config}[.listen]) with the same data loaded. The router owns
    the three client-side concerns that make such a fleet usable:

    {ul
    {- {b Placement.} Every [solve]/[count] names a [(g1, g2)] pair; the
       pair is placed on the ring of replicas by consistent hashing
       (FNV-1a over [g1 ^ "\x00" ^ g2], {!default_config}[.vnodes] virtual
       nodes per replica), so repeated queries for the same pair land on
       the same replica and reuse its warm artifact cache. Adding or
       removing one replica moves only the keys adjacent to its vnodes —
       the rest of the fleet's caches stay warm.}
    {- {b Health-gated failover.} Each endpoint has a circuit breaker:
       {!default_config}[.failure_threshold] consecutive connection-level
       failures open it, and an open breaker removes the replica from
       every placement until its cooldown (exponential, capped) elapses.
       The next request then half-opens it with a [health] probe; a
       [ready]/[degraded] reply closes the breaker (after load replay,
       below), anything else re-opens it with a doubled cooldown.
       Idempotent requests — [solve], [count], and every probe verb —
       fail over to the next replica in preference order; a reply of
       [status=exhausted(cancelled)] (the server-side drain abort) is
       treated as a failure of that replica, not an answer, and the
       request re-runs elsewhere.}
    {- {b Busy isolation.} A replica answering
       [error busy retry-after=<s>] is gated out of placements for [s]
       seconds — its own hint, honored independently per endpoint — while
       the request immediately fails over. Only when {e every} candidate
       is gated does the router sleep until the earliest gate expires.}}

    [load]/[unload] are not keyed: they broadcast to every reachable
    replica so the fleet stays content-identical, and successful loads are
    recorded in a replay log. When a breaker closes, the log is replayed
    to the recovered replica before it rejoins placements; the daemon's
    content-CRC idempotent load makes the replay a no-op on a durable
    replica that already has the data, and refuses (rather than silently
    reloads) a file whose content changed — counted in {!replays_refused}.

    The router is deliberately connection-per-request (like
    {!Client.request}) and mutex-protected, so one instance can be shared
    across domains. *)

type t

type config = {
  vnodes : int;  (** virtual nodes per endpoint on the hash ring *)
  failure_threshold : int;
      (** consecutive connection-level failures that open a breaker *)
  cooldown : float;
      (** seconds an open breaker blocks its endpoint before the first
          half-open probe; doubles on every re-trip *)
  cooldown_max : float;  (** cap on the exponential cooldown *)
  connect_timeout : float option;
  read_timeout : float option;
}

val default_config : config
(** 64 vnodes, threshold 3, 0.5 s cooldown capped at 30 s, 2 s connect
    timeout, 30 s read timeout. *)

type transport = string -> string -> (string, string) result
(** [transport endpoint line] performs one request round-trip. The default
    dials the endpoint with {!Client.connect}/{!Client.send}; tests inject
    a fake to script failure schedules without sockets. [Error] means the
    transport failed (refused, reset, timed out) — an [error ...] reply
    from a live daemon is an {e answer} and arrives as [Ok]. *)

val create :
  ?config:config ->
  ?transport:transport ->
  ?now:(unit -> float) ->
  ?sleep:(float -> unit) ->
  endpoints:string list ->
  unit ->
  (t, string) result
(** Build a router over a static endpoint set ([HOST:PORT] or Unix socket
    paths, as {!Client.sockaddr_of_string} accepts). Fails on an empty or
    duplicated set, or an endpoint that does not parse. [now]/[sleep]
    default to the real clock; tests inject virtual time. *)

val request : t -> string -> (string, string) result
(** Route one request line and return the daemon's one-line reply.
    [solve]/[count] go to the owner of their [(g1, g2)] key (then fail
    over along the preference order); [load]/[unload]/[shutdown] broadcast;
    everything else — probes, [version], [list], an unparseable line — goes
    to any healthy replica. [Error] only when no replica could answer. *)

(** {1 Placement} *)

val solve_key : g1:string -> g2:string -> string
(** The placement key of a [(g1, g2)] pair: [g1 ^ "\x00" ^ g2] (the
    separator cannot occur in catalog names). *)

val place : t -> key:string -> string list
(** Every endpoint in preference order for [key] (ignores breaker state —
    this is the static ring order; [request] applies health gating). *)

val owner :
  ?vnodes:int -> endpoints:string list -> key:string -> unit -> string option
(** First preference for [key] over a bare endpoint list, without building
    a router — lets tests and the chaos harness predict placements. Uses
    {!default_config}[.vnodes] unless overridden. *)

(** {1 Introspection} *)

type breaker = Closed | Open | Half_open
(** [Half_open] = open with an elapsed cooldown: the next request through
    this endpoint starts with a [health] probe. *)

val breaker_state : t -> string -> breaker
(** @raise Invalid_argument on an unknown endpoint. *)

val endpoints : t -> string list
(** The configured endpoints, in creation order. *)

val failovers : t -> int
(** Requests answered by an endpoint other than their first preference. *)

val breaker_trips : t -> int
(** Times any breaker transitioned to [Open] (including re-trips). *)

val replays : t -> int
(** Load lines successfully replayed to recovering replicas. *)

val replays_refused : t -> int
(** Replayed load lines the replica refused — a source file whose content
    changed while the replica was down; the replica rejoins but is missing
    that name, never serving silently-different data. *)

val mismatches : t -> int
(** Broadcast requests whose [ok] replies disagreed across replicas — a
    divergence canary. *)
