(** The matching list [H] of greedyMatch (paper Figs. 3–4): mutable, with
    each row a bitset over its node's candidates.

    A {!universe} fixes, for one solve, every [G1] node's candidate row,
    sorted ascending: a row's position [p] is its [p]th smallest candidate.
    For every still-active node [v], [H] holds [good(v)], the candidates
    still live under the current hypothesis, as the set bits of a row of
    [⌈|row(v)| / 63⌉] words; bit order is id order, so every smallest-id
    tie-break of the paper's loop holds on positions. The active nodes are
    kept in ascending order.

    The paper also gives each node a [minus] set, the candidates ruled out
    by the hypothesis, which the H⁻ branch explores. Every list greedyMatch
    evaluates has empty [minus] sets: the initial list, [H \ I] and
    compMaxSim's weight-group lists start with none, and a step leaves none.
    So they are never stored. One step moves the pairs it rules out straight
    into a fresh list, H⁻, and the list it ran on becomes H⁺ in place:
    nothing reads a list after its step, so H⁺ reuses its words.

    Invariant: a node present has a non-empty [good]. Nodes whose last
    candidate goes are dropped (they can never be matched, mirroring the
    paper's partitioning optimization). *)

module Int_map : Map.S with type key = int

type universe
(** One solve's instance and candidate rows, shared by compMaxCard's rounds
    and compMaxSim's weight groups. Lists of one universe share one step's
    scratch, so the universe serves one solve at a time. *)

val universe : Instance.t -> universe
(** The rows of {!Instance.candidates}, sorted, duplicates dropped. *)

type t

val of_candidates : universe -> t
(** The initial [H]: [good(v)] is [v]'s whole row. Nodes with an empty
    row are skipped. *)

val of_pairs : universe -> (int * int) list -> t
(** The list holding exactly the given [(v, u)] pairs.

    @raise Invalid_argument when [u] is not in [v]'s row. *)

val copy : t -> t
(** A list equal to its argument, over the same universe, sharing no rows
    with it. *)

val is_empty : t -> bool

val size : t -> int
(** Number of nodes in [H] — the [sizeof(H)] of the paper's main loop. *)

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f h acc] folds [f v u] over every pair, by ascending [v] then
    [u]. *)

val remove_pairs : t -> (int * int) list -> unit
(** [H := H \ I] in place: deletes each pair, dropping exhausted nodes.
    Pairs not in [H] are ignored. *)

(** {1 One greedyMatch step}

    A step on [h] calls {!take}, then {!prune_target} any number of times,
    then {!finish}, which leaves [h] as H⁺ and returns H⁻. Nothing else
    may touch a list of the same universe in between. *)

val take : t -> [ `Best_sim | `First ] -> int * int
(** greedyMatch lines 2–4. Picks [v], the node with the largest [good]
    (ties: smallest id), and [u ∈ good(v)]: under [`Best_sim] the most
    similar to [v], under [`First] the smallest; either way ties go to the
    smallest id. Takes [v] out of [h], keeps its other candidates for H⁻,
    and trims [v]'s neighbours against [(v, u)]: a parent's candidate [u']
    needs a non-empty path [u' → u] in [G2], a child's needs [u → u'].
    A trimmed neighbour costs one closure probe per live candidate and
    one write per word of its row; nothing is allocated. Returns
    [(v, u)].

    @raise Invalid_argument on the empty list. *)

val prune_target : t -> int -> unit
(** [prune_target h u] moves [u] out of every node's [good], for H⁻. *)

val finish : t -> t
(** Ends the step: drops the taken and exhausted nodes from [h], which is
    now H⁺, and returns H⁻, a fresh list of the pairs the step moved. *)
