(** Warm-start repair: adapt the mapping of a previous solve to an edited
    instance.

    After an [addedge]/[deledge] most of the previous answer is still right;
    {!repair} salvages it instead of starting over — it drops pairs that are
    no longer admissible, restores functionality (and injectivity when
    asked), then deterministically evicts the mapped nodes that break
    pattern edges until the rest is a valid (1-1) p-hom mapping. The result
    always satisfies [Instance.is_valid] and can be handed to
    [Api.solve_within ~warm_start] as an anytime incumbent. *)

val repair : ?injective:bool -> Instance.t -> Mapping.t -> Mapping.t
(** [repair ~injective t m] is a valid mapping for [t] obtained from [m] by
    local deletions only (never additions), sorted and duplicate-free.
    Each eviction round walks the out-edges of the mapped pattern nodes
    against an image array: O(n1 + |E1|) per evicted node at most. *)
