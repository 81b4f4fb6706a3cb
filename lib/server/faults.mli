(** Deterministic socket fault injection for the daemon and its client.

    Modeled on {!Phom_graph.Budget.trip_after}: a test arms an injection
    that lets the first [after] operations of a kind pass through untouched
    and perturbs the next one, so a failure can be planted at an exact
    point of the request lifecycle and the run is reproducible. All daemon
    and client socket I/O goes through {!read}, {!write} and {!accept};
    with nothing armed they are exactly the [Unix] calls.

    The registry is a process-wide, mutex-protected plan so tests can arm
    faults from the test domain while the daemon loop runs in another.
    Production code never arms anything. *)

type op =
  | Read
  | Write
  | Accept
  | Fwrite  (** durable-state file writes (snapshots, journal appends) *)

type kind = Unix_sock | Tcp
(** The transport a connection was accepted on (or a listener serves).
    Every daemon socket operation reports its kind, so injections can be
    scoped to one listener's traffic. *)

type scope =
  | Any  (** fire on either transport (the historical behavior) *)
  | Only of kind
      (** count and fire only on operations of this transport — a fault
          planted on the TCP listener leaves the Unix path untouched, and
          vice versa *)

type action =
  | Short  (** truncate the transfer to a single byte *)
  | Torn
      (** {!Fwrite} only: write a prefix, silently drop the rest, and
          report the full length — the torn page a [kill -9] between
          writes leaves behind. On socket ops it behaves like [Short]. *)
  | Eintr  (** fail once with [EINTR] (callers must retry) *)
  | Fail of Unix.error
      (** fail once with this error ([Fail Unix.ENOSPC] on {!Fwrite}
          models a full disk mid-snapshot) *)
  | Disconnect
      (** the peer vanishes politely: reads see EOF, writes fail with
          [EPIPE], accepts fail with [ECONNABORTED] *)
  | Reset
      (** the peer vanishes rudely (a [kill -9]'d replica): reads and
          writes fail with [ECONNRESET] — planted on a {!Write} this is a
          mid-reply connection reset *)

val inject : ?scope:scope -> op -> after:int -> action -> unit
(** [inject op ~after:n act] lets the next [n] operations of kind [op]
    (within [scope], default [Any]) proceed normally and applies [act] to
    the one after, consuming the injection. Several injections may be
    armed at once; each counts down independently from its arming point.

    @raise Invalid_argument if [after < 0]. *)

val clear : unit -> unit
(** Disarm every pending injection, hook, delay and health flap. *)

val armed : unit -> int
(** Injections not yet fired — lets a test assert its whole plan ran. *)

val read : ?kind:kind -> Unix.file_descr -> bytes -> int -> int -> int
val write : ?kind:kind -> Unix.file_descr -> bytes -> int -> int -> int
val accept : ?kind:kind -> Unix.file_descr -> Unix.file_descr * Unix.sockaddr

val fwrite : Unix.file_descr -> bytes -> int -> int -> int
(** The durable-state write seam: {!Persist} and {!Journal} push every
    byte through here, so tests can plant a torn write, a short write or
    an [ENOSPC] at an exact record boundary and prove recovery quarantines
    (never loads) the damage. *)

(** {1 Request-level seams}

    Socket faults exercise the I/O layer; these reach inside request
    execution itself. *)

val set_execute_hook : (unit -> unit) option -> unit
(** Arm a thunk run as every request is prepared, before it is
    dispatched and inside the daemon's one exception guard. It runs for
    every request alike, whether it came over a socket or through
    {!Daemon.execute}, solves and counts included. A hook that raises
    proves an arbitrary handler exception becomes an opaque
    [error internal] reply, while [Failure] and the other user-level
    errors keep their message. *)

val execute_hook : unit -> unit
(** Run the armed hook, if any. Called by the daemon; a no-op otherwise. *)

val set_solve_delay : float -> unit
(** Arm a sleep executed at the start of every solve job (before any
    artifact is built), so tests and the smoke scripts can hold a solve
    in flight long enough to disconnect, stall or signal the daemon
    mid-request. [0.] (the default) disarms. *)

val solve_delay : unit -> unit
(** Sleep the armed delay, if any. Called inside the solve job. *)

val set_health_flap : int -> unit
(** Make the next [n] [health] requests answer [error unavailable] instead
    of the real health report — a flapping replica, as seen by a router's
    circuit breaker. The daemon consumes one flap per health dispatch;
    [0] disarms. *)

val health_flap : unit -> bool
(** Consume one armed flap ([true] = this health request must flap).
    Called by the daemon's dispatch; [false] when nothing is armed. *)
