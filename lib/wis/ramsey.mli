(** The Ramsey procedure and the clique/independent-set removal algorithms of
    Boppana and Halldórsson [7] (paper Fig. 9).

    [ramsey] returns simultaneously a clique and an independent set of the
    graph; on an n-node graph at least one of them has size Ω(log n), which
    is what yields the O(n / log² n) performance guarantee of
    [clique_removal] / [is_removal] — and, through the AFP-reduction of
    Theorem 5.1, the O(log²(n1·n2)/(n1·n2)) guarantee of the paper's
    matching algorithms. *)

val ramsey :
  ?budget:Phom_graph.Budget.t ->
  Ungraph.t ->
  Phom_graph.Bitset.t ->
  int list * int list
(** [ramsey g subset] is [(clique, independent)] within [subset]. Pivots are
    chosen with maximum degree inside the current subset (any choice
    preserves the guarantee; this one helps in practice). One [budget] tick
    per recursion node; truncated subtrees contribute empty sets, so the
    answer stays a valid clique/IS pair, only possibly smaller. *)

val clique_removal :
  ?budget:Phom_graph.Budget.t ->
  Ungraph.t ->
  int list
(** Approximate {b maximum independent set}: repeatedly run {!ramsey} and
    remove the clique found; return the largest independent set seen —
    the best so far when [budget] trips. *)

val is_removal :
  ?budget:Phom_graph.Budget.t ->
  Ungraph.t ->
  int list
(** Approximate {b maximum clique}: the dual (paper Fig. 9, ISRemoval) —
    repeatedly remove the independent set found; return the largest
    clique seen — the best so far when [budget] trips. *)
