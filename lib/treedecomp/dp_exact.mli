(** Exact p-homomorphism solving and counting by dynamic programming over a
    nice tree decomposition of the pattern.

    The DP consumes raw materials rather than a [Phom.Instance.t] so this
    library can sit below [phom]: the pattern digraph, the data graph's
    (bounded) transitive closure as a bitmatrix, the per-pattern-node
    candidate rows (already ξ-filtered, no data node twice in a row, and
    a self-looped node's row holding only nodes on a cycle, as
    [Instance.candidates] leaves it), and a per-pair value function. A
    table row is a bag assignment. Edges are enforced at introduce nodes,
    which a valid decomposition guarantees covers every pattern edge: the
    node's {!Phom_graph.Fit} reads the child row's positions and yields
    the fitting candidates from bitmasks, so the pass reads no [tc2] bit
    itself. Work is O(Σ_bags |cands|^{bag size}) — polynomial for bounded
    width.

    [solve] and [count] share one table pass: it fills every nice-tree
    node's table bottom-up, on the caller's domain and budget, and the two
    differ only in their row operations (whether an introduced node may
    stay unmapped, the leaf row, the gain of a pair, the merge at a forget,
    the join of two subtree rows), which read and write their own typed
    value arrays by row id. A table is flat: its keys are fixed-width runs
    of candidate positions in one [int] array, an open-addressing index
    over them exists only while a forget merges into the table or a join
    probes it, and each row records the child row(s) it came from, which
    [solve]'s traceback follows down from the root.

    Memory: a table's keys and values are released as soon as its parent
    is built, so at any time the live rows are those of the node being
    built, its children, and the left child of each join still waiting for
    its right subtree. [count] keeps nothing else; [solve] also keeps one
    [int] per row of every table for the traceback. An introduce node's
    masks, at most one [|cands v| × |cands w|] bit matrix per edge to a
    co-member [w], are freed once the node is built.

    Anytime contract: one {!Phom_graph.Budget} tick per table row
    processed, so a step cap completes exactly when it covers the rows. A
    tripped optimisation returns the empty mapping (always a valid partial
    p-hom mapping) with the budget's status; a tripped count returns
    [count = 0, exact = false] — a partial count is not a valid answer, and
    callers must never cache it. *)

type outcome = {
  mapping : (int * int) list;  (** sorted by pattern node, best found *)
  value : float;  (** objective value of [mapping] *)
  status : Phom_graph.Budget.status;
}

type count_outcome = {
  count : int;  (** number of total valid mappings, saturating at max_int *)
  exact : bool;  (** false when saturated or when the budget tripped *)
  status : Phom_graph.Budget.status;
}

val solve :
  ?budget:Phom_graph.Budget.t ->
  g1:Phom_graph.Digraph.t ->
  tc2:Phom_graph.Bitmatrix.t ->
  cands:int array array ->
  pair_value:(int -> int -> float) ->
  Treedecomp.nice ->
  outcome
(** Maximum-value partial p-hom mapping: every pattern node maps to one of
    its candidates or stays unmapped (value 0); every pattern edge between
    mapped nodes must land in [tc2]. [pair_value v u >= 0.] is the gain of
    mapping pattern node [v] to data node [u] — [fun _ _ -> 1.] recovers
    maximum cardinality. Ties break towards the assignment that comes
    first when each pattern node's options are ordered "unmapped, then its
    candidates in row order": a forget keeps, of two equal rows, the one
    whose forgotten node comes first that way, so the witness does not
    depend on the order rows are made in.
    Injectivity is deliberately out of scope (treewidth DP cannot track
    it); callers wanting 1-1 check the witness and fall back. *)

val count :
  ?budget:Phom_graph.Budget.t ->
  g1:Phom_graph.Digraph.t ->
  tc2:Phom_graph.Bitmatrix.t ->
  cands:int array array ->
  Treedecomp.nice ->
  count_outcome
(** Number of {e total} valid p-hom mappings — every pattern node mapped to
    one of its candidates, every pattern edge satisfied. [count > 0] iff
    the p-hom decision problem holds on the candidate tables; the empty
    pattern has exactly one (empty) mapping. Arithmetic saturates at
    [max_int] with [exact = false]. Injective counting is #W[1]-hard and
    not offered. *)
