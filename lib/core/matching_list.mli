(** The matching list [H] of greedyMatch (paper Figs. 3–4): mutable and
    array-backed.

    For every still-active [G1] node [v], [H] holds [good(v)], the candidate
    [G2] matches still live under the current hypothesis, as a non-empty
    ascending array. The active nodes are kept in ascending order.

    The paper also gives each node a [minus] set, the candidates ruled out
    by the hypothesis, which the H⁻ branch explores. Every list greedyMatch
    evaluates has empty [minus] sets: the initial list, [H \ I] and
    compMaxSim's weight-group lists start with none, and a step leaves none.
    So they are never stored. One step moves the pairs it rules out straight
    into a fresh list, H⁻, and the list it ran on becomes H⁺ in place:
    nothing reads a list after its step, so H⁺ reuses its arrays. A step
    costs one O(|H|) scan in {!widest}, a binary search per node it prunes,
    and allocation in proportion to the pairs it moves.

    Invariant: a node present has a non-empty [good]. Nodes whose last
    candidate goes are dropped (they can never be matched, mirroring the
    paper's partitioning optimization). *)

module Int_map : Map.S with type key = int

type t

val of_candidates : int array array -> t
(** [of_candidates cands] builds the initial [H]: [good(v)] is [cands.(v)],
    sorted, duplicates dropped. Rows with no candidates are skipped. The
    list shares nothing with [cands]. *)

val of_pairs : (int * int) list -> t
(** The list holding exactly the given [(v, u)] pairs. *)

val copy : t -> t
(** A list equal to its argument and sharing nothing with it. *)

val is_empty : t -> bool

val size : t -> int
(** Number of nodes in [H] — the [sizeof(H)] of the paper's main loop. *)

val nb_pairs : t -> int
(** Total number of candidate pairs. *)

val mem : t -> int -> bool

val good : t -> int -> int array
(** A fresh copy of [good(v)], ascending; empty when [v] is absent. *)

val nodes : t -> int list
(** The active nodes, ascending. *)

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f h acc] folds [f v u] over every pair, by ascending [v] then
    [u]. *)

val remove_pairs : t -> (int * int) list -> unit
(** [H := H \ I] in place: deletes each pair, dropping exhausted nodes.
    Pairs not in [H] are ignored. *)

(** {1 One greedyMatch step}

    A step on [h] calls {!widest}, {!take}, any number of {!prune} and
    {!prune_target}, then {!finish}, which leaves [h] as H⁺ and returns
    H⁻. *)

type moved
(** The pairs a step has moved out of its list so far: the H⁻ under
    construction. *)

val widest : t -> int * int array
(** The node [v] with the largest [good] (ties: smallest id), with
    [good(v)] — greedyMatch line 2. The array may be [h]'s own storage:
    read it, do not keep or change it.

    @raise Invalid_argument on the empty list. *)

val take : t -> int -> keep:int -> moved
(** [take h v ~keep:u] takes [v] out of [h] and starts the step's H⁻ with
    [good(v) \ {u}] — greedyMatch line 3. No-op on an absent [v]. *)

val prune : t -> moved -> int -> (int -> bool) -> unit
(** [prune h moved v bad] moves every [u ∈ good(v)] with [bad u] from [h]
    to [moved]. No-op when [v] is absent or taken. *)

val prune_target : t -> moved -> int -> unit
(** [prune_target h moved u] moves [u] out of every node's [good]. *)

val finish : t -> moved -> t
(** Ends the step: drops the taken and exhausted nodes from [h], which is
    now H⁺, and returns H⁻, a fresh list of the moved pairs. *)
