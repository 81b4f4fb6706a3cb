(** Transitive closure with the paper's non-empty-path semantics.

    [(u, v) ∈ E⁺] iff there is a path from [u] to [v] with at least one edge;
    in particular [(u, u) ∈ E⁺] iff [u] lies on a cycle or carries a
    self-loop. Computed by Tarjan condensation followed by one reverse
    topological sweep over the condensation (the approach of Nuutila [22]
    cited by the paper): each component's row is the union of its distinct
    successor components' rows, built once and shared by its members, so
    cyclic graphs cost no more than their condensation DAG and the n×n
    result is the only matrix allocated. *)

val compute : ?budget:Budget.t -> Digraph.t -> Bitmatrix.t
(** [compute g] is the n×n reachability matrix of [g] ([H2] in the paper's
    algorithm compMaxCard, Fig. 3 lines 5–7). [budget] is ticked once per
    distinct condensation edge and once per component, so a complete run
    uses exactly that many steps. An exhausted [budget] stops the sweep
    early and yields an {e under-approximation} of reachability —
    downstream matchers then see fewer candidate paths, never a spurious
    one, so anytime results stay valid. *)

val graph : ?budget:Budget.t -> Digraph.t -> Digraph.t
(** [graph g] is [G⁺] as a digraph with the same nodes and labels. Used to
    make matching symmetric (Section 3.2 Remark: check [G1⁺ ⪯(e,p) G2]).
    Budget semantics as {!compute}. *)

val naive : Digraph.t -> Bitmatrix.t
(** Reference implementation by per-node BFS; O(n·(n+m)). Used by tests as
    an oracle for {!compute}. *)
