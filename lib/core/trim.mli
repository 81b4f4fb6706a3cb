(** Procedure trimMatching (paper Fig. 4): assuming the candidate match
    [(v, u)], prune candidates of [v]'s parents and children in [G1] that
    cannot coexist with it — a parent's candidate [u'] needs a non-empty
    path [u' → u] in [G2], a child's candidate needs [u → u']. Pruned
    candidates leave the list in place and join [moved], the step's H⁻, so
    that branch can still explore them. *)

val trim :
  g1:Phom_graph.Digraph.t ->
  tc2:Phom_graph.Bitmatrix.t ->
  v:int ->
  u:int ->
  Matching_list.t ->
  Matching_list.moved ->
  unit
