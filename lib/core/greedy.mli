(** Procedure greedyMatch (paper Fig. 4), defunctionalized.

    The paper's procedure is a binary recursion: pick a candidate pair
    [(v, u)], trim, recurse on H⁺ (the world where [(v, u)] holds) and on
    H⁻ (the world where it doesn't), and keep the better mapping of the two
    — simultaneously building the set [I] of pairwise-contradictory pairs
    that the outer loop removes. Its recursion depth is bounded only by the
    number of candidate pairs, which reaches ~10⁶ at paper scale, so we run
    it as an explicit work-stack machine (semantically identical,
    heap-bounded).

    Each step splits its list with {!Matching_list}'s step functions: the
    pairs it rules out go to a fresh H⁻ and the list itself becomes H⁺ in
    place, so a step allocates only H⁻, a few words per node it moves.
    [run] works on its own copy of the input list, which the caller
    keeps.

    [mode] generalizes the paper's two variants:
    - [`Free] — plain p-hom;
    - [`Capacitated caps] — when [(v, u)] is fixed and [u]'s remaining
      capacity drops to 0, [u] moves out of every other node's [good]
      (the paper's 1-1 extra step, with capacity 1; Appendix-B compressed
      [G2] nodes carry their clique size). *)

type result = {
  sigma : Mapping.t;  (** the p-hom mapping found *)
  conflict : (int * int) list;
      (** the pairwise-contradictory pair set [I]; non-empty whenever the
          input list is non-empty *)
}

val run :
  ?budget:Phom_graph.Budget.t ->
  pick:[ `Best_sim | `First ] ->
  mode:[ `Free | `Capacitated of int Matching_list.Int_map.t ] ->
  Matching_list.t ->
  result
(** [pick] selects the candidate to try first, as in
    {!Matching_list.take}: compMaxCard's default tries the most similar.

    One [budget] tick per evaluated sub-list. An exhausted budget makes the
    remaining branches evaluate to the empty mapping, so [sigma] is still a
    valid mapping — assembled from whatever was explored before the trip —
    and [run] returns promptly instead of raising. *)
