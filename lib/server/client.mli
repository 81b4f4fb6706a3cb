(** A phomd client: one line out, one line back, with timeouts and retry.

    The protocol frames every exchange as a single request line answered by
    a single reply line (see {!Protocol}), so the client needs no state —
    {!request} opens a connection per request; {!connect}/{!send} serve
    callers holding a connection open. The CLI's [phom client] subcommand
    and the smoke tests are built on this.

    Every failure comes back as [Error msg], never as an exception. *)

val sockaddr_of_string : string -> (Unix.sockaddr, string) result
(** [sockaddr_of_string addr] interprets [addr] as [HOST:PORT] (TCP, host
    by name or dotted quad) when it contains a colon followed by digits,
    and as a Unix-domain socket path otherwise. *)

type conn

val connect : ?timeout:float -> Unix.sockaddr -> (conn, string) result
(** [timeout] bounds connection establishment (seconds); without it the
    connect blocks indefinitely. TCP dials are non-blocking
    ([EINPROGRESS] + [select] + [SO_ERROR]) so the deadline holds even
    against hosts that drop SYNs instead of refusing them, and the
    established socket gets [TCP_NODELAY] — replies are one short line,
    Nagle only adds latency. *)

val close : conn -> unit

val post : conn -> string -> (unit, string) result
(** Write one request line without waiting for the reply — the seam the
    fault tests use to disconnect between request and reply. *)

val receive : ?timeout:float -> conn -> (string, string) result
(** Read one reply line. [timeout] bounds the whole read (seconds); an
    exhausted deadline is [Error "timed out waiting for reply"]. *)

val send : ?timeout:float -> conn -> string -> (string, string) result
(** [send conn line] writes one request line and reads one reply line;
    [timeout] applies to the read. A failed write still attempts the read:
    a daemon that sheds or evicts a peer sends its parting reply and
    closes before the request lands, so the reply (not the [EPIPE]) is
    the useful answer. *)

val retry_after_hint : string -> float option
(** [Some seconds] when the reply is the daemon's admission-control shed
    ([error busy retry-after=<s>]); [None] otherwise. *)

type backoff = {
  retries : int;  (** additional attempts after the first (0 = one shot) *)
  delay : float;  (** base delay, doubled each attempt *)
  max_delay : float;  (** cap on the exponential *)
}

val request :
  ?connect_timeout:float ->
  ?read_timeout:float ->
  ?backoff:backoff ->
  ?rng:Random.State.t ->
  Unix.sockaddr ->
  string ->
  (string, string) result
(** One-shot: connect, {!send}, close — retrying on connection-level
    failures and on [error busy retry-after=<s>] replies. Each pause is
    [min max_delay (delay * 2^attempt)] scaled by a jitter factor in
    [0.5, 1.0] (drawn from [rng], self-seeded by default), and never less
    than the daemon's [retry-after] hint when one was given. The default
    [backoff], [{ retries = 0; delay = 0.2; max_delay = 2.0 }], is one shot.
    Other [error] replies are returned as-is: they are answers, not
    failures. *)
