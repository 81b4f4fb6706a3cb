(** A byte-accounted, domain-safe LRU cache for large matching artifacts
    (closure matrices, similarity matrices, candidate tables).

    Capacity is measured in bytes via a caller-supplied weight function, not
    in entry counts: one 2000-node closure dwarfs a hundred small ones, so
    counting entries would let the cache blow the memory budget. Because
    entries are large, the table stays small, and eviction scans for the
    least-recently-used entry in O(entries) instead of maintaining an
    intrusive list — simpler, and negligible next to the cost of computing
    any artifact.

    Every operation takes an internal mutex, so pool workers can hit the
    cache concurrently; the hit/miss/eviction counters stay exact (each
    lookup counts exactly one hit or one miss). *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;  (** entries pushed out by capacity pressure *)
  entries : int;
  bytes : int;  (** current resident weight *)
  capacity_bytes : int;
}

type ('k, 'v) t

val create : capacity_bytes:int -> weight:('v -> int) -> unit -> ('k, 'v) t
(** @raise Invalid_argument if [capacity_bytes < 0]. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Counts one hit (and refreshes recency) or one miss. *)

val put : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace, then evict least-recently-used entries until the
    resident weight fits the capacity again. A value heavier than the whole
    capacity is not stored at all (it would only evict everything and still
    not fit). Does not touch the hit/miss counters. *)

val remove_if : ('k, 'v) t -> ('k -> bool) -> ('k * 'v) list
(** Invalidation sweep (e.g. on catalog [unload]): drop every entry whose
    key satisfies the predicate, in one pass under the lock; returns the
    dropped entries least-recently-used first, so re-inserting them in
    that order keeps their relative recency. Dropped entries do not count
    as evictions. *)

val stats : ('k, 'v) t -> stats

val bindings : ('k, 'v) t -> ('k * 'v) list
(** Every resident entry, least-recently-used first — the snapshot
    exporter's view. Re-inserting in this order reproduces the recency
    order (modulo ties). Does not touch the hit/miss counters. *)

val hits : ('k, 'v) t -> int
(** Lock-free reads of the single-source-of-truth counters: these return
    the same atomic cells {!stats} copies and reply provenance increments,
    so the metrics registry and per-reply provenance can never disagree. *)

val misses : ('k, 'v) t -> int
val evictions : ('k, 'v) t -> int
