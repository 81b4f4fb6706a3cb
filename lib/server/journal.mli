(** The recovery journal: an append-only, per-line-checksummed log of
    catalog mutations since the last snapshot.

    Recovery = latest snapshot + journal replay, so a crash loses at most
    the in-flight window the fsync policy allows. One event per line:
    {v
    phomd-journal 1
    J1 <crc32-hex of body> <body>
    v}
    where the body is [load-graph <name> <path> <crc>],
    [load-mat <name> <path> <crc>], [unload <name>] or
    [artifact <key-token>]. Load events carry a checksum of the loaded
    value's canonical serialization, so replay detects a source file that
    drifted since the journaled load. Artifact events carry only the cache
    key; replay recomputes the artifact (deterministic, and far smaller on
    disk than the artifact itself).

    A line whose checksum fails — the torn tail of a [kill -9] mid-append —
    is quarantined and {e stops} replay: nothing after a tear can be
    trusted to be in sequence. All writes ride {!Faults.fwrite}. *)

type fsync =
  | Always  (** fsync every append: lose nothing short of media failure *)
  | Interval
      (** fsync when the daemon's periodic {!flush} fires: lose at most
          the flush interval *)
  | Never
      (** never fsync: the page cache still survives [kill -9], but not
          power loss *)

val fsync_to_string : fsync -> string
val fsync_of_string : string -> fsync option

type event =
  | Load_graph of { name : string; path : string; crc : string }
  | Load_mat of { name : string; path : string; crc : string }
  | Unload of string
  | Edit of { name : string; op : string; v : int; w : int; crc : string }
      (** a single-edge edit of a catalog graph: [op] is ["add"] or
          ["del"], [crc] the content signature of the graph {e after} the
          edit — replay re-applies the edit and verifies convergence *)
  | Artifact of string  (** a {!Catalog} artifact key token *)

(** {1 Appending} *)

type t

val open_append : path:string -> fsync:fsync -> (t, string) result
(** Open (creating if needed) for appending; a fresh or empty file gets
    its header line. *)

val append : t -> event -> unit
(** Append one event line (and fsync it under [Always]). Never raises: a
    failed append (ENOSPC, injected fault) increments {!errors} instead of
    killing the serving path — the daemon reports it as a degraded health
    state. Safe to call from any domain. *)

val flush : t -> unit
(** fsync now if anything was appended since the last sync (no-op under
    [Never]). The daemon calls this on its periodic tick. *)

val rotate : t -> unit
(** Truncate back to a bare header — called right after a snapshot lands,
    which supersedes everything the journal recorded. *)

val close : t -> unit
(** Final flush and close; idempotent. *)

val appended : t -> int
(** Events successfully appended since open (rotation does not reset it). *)

val errors : t -> int
(** Appends that failed and were dropped. *)

val path : t -> string

(** {1 Replay} *)

val replay : path:string -> (event list * int, string) result
(** [Ok (events, quarantined)]: the events up to the first unverifiable
    line, in append order; [quarantined] is 1 if a torn or corrupt line
    stopped the scan, 0 on a clean read. An empty file replays as
    [([], 0)]. [Error] means unreadable or not a journal at all. *)
