(** A fixed-size pool of OCaml 5 domains for embarrassingly parallel
    fan-out, built on stdlib [Domain], [Atomic], [Mutex] and [Condition]
    only — no external dependencies.

    Two seams of this repository decompose into independent units: the
    daemon's request jobs, and the bench harness's batches (sweep points
    and per-version match jobs). A solve itself never spans domains: each
    job or batch item runs on one. A pool runs those units across domains
    while keeping results deterministic: {!map} returns results in input
    order, and a pool of size 1 executes the exact sequential code path,
    so [--jobs 1] is bit-identical to a build without this library.

    Submitting work is only allowed from the domain that created the pool
    or from inside a pool task (a nested {!map} is safe: the caller of a
    batch always participates in executing it, so progress never depends
    on a free worker). Tasks themselves must be domain-safe: they
    must not share mutable state unless that state is synchronized — a
    {!Phom_graph.Budget.t}, for one, is ticked by one task at a time. *)

type t

val create : ?domains:int -> unit -> t
(** [create ?domains ()] spawns a pool of [domains] workers in total,
    including the calling domain (so [domains - 1] new domains are
    spawned). Default: {!Domain.recommended_domain_count}, clamped to
    [[1, 64]]. [domains = 1] spawns nothing and makes every pool operation
    run sequentially in the caller.

    @raise Invalid_argument if [domains < 1]. *)

val size : t -> int
(** Total workers, including the calling domain; ≥ 1. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f items] applies [f] to every element of [items], running the
    applications across the pool's domains, and returns the results {e in
    input order}. The calling domain participates in the work. If one or
    more applications raise, the whole batch still runs to completion and
    the exception of the {e lowest-indexed} failing element is re-raised —
    deterministic regardless of scheduling. A pool of size 1 (or a batch of
    size ≤ 1) degenerates to [Array.map f items] on the calling domain. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over lists, preserving order. *)

type 'a future
(** A single submitted task's pending result. *)

val submit : t -> (unit -> 'a) -> 'a future
(** [submit pool f] schedules [f] as one task on the pool and returns
    immediately. On a pool of size 1 (or a shut-down pool) [f] runs in the
    caller before [submit] returns. This is the seam the matching daemon
    uses: each solve or count request becomes one pool job, which its
    event loop polls and an in-process caller {!await}s, so a request is
    bounded by its own budget rather than by the loop.

    Submit from the domain that created the pool (or from inside a pool
    task). A task must not {!await} a future submitted {e after} itself —
    workers run the queue in order, so that future could be waiting behind
    the waiter. *)

val await : 'a future -> 'a
(** Block until the task has run; returns its value or re-raises its
    exception. Safe to call from any domain and more than once. If the pool
    is shut down before the task was started, {!shutdown} runs the task in
    the shutting-down caller, so [await] never hangs. *)

val shutdown : t -> unit
(** Stop and join the worker domains. Idempotent. Operations on a shut-down
    pool run sequentially in the caller (size is treated as 1). *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and shuts it down afterwards,
    whether [f] returns or raises. *)
