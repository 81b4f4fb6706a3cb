(** A matching instance: the tuple [(G1, G2, mat(), ξ)] every problem in the
    paper takes as input, plus the transitive closure of [G2] that all
    algorithms share. Build it once and pass it around — the closure is the
    single most expensive piece of shared state. *)

type t = {
  g1 : Phom_graph.Digraph.t;
  g2 : Phom_graph.Digraph.t;
  mat : Phom_sim.Simmat.t;
  xi : float;
  tc2 : Phom_graph.Bitmatrix.t;  (** transitive closure of [g2] *)
  cands_memo : int array array option Atomic.t;
      (** memo for {!candidates} — do not read directly; populated lazily
          (or via {!preset_candidates}) so a preloaded instance answers many
          queries without re-deriving its shared candidate structure *)
}

val make :
  ?budget:Phom_graph.Budget.t ->
  ?tc2:Phom_graph.Bitmatrix.t ->
  g1:Phom_graph.Digraph.t ->
  g2:Phom_graph.Digraph.t ->
  mat:Phom_sim.Simmat.t ->
  xi:float ->
  unit ->
  t
(** Validates dimensions ([mat] must be [n1 × n2], [ξ ∈ [0,1]]) and computes
    [tc2] unless provided. The closure computation draws on [budget] (see
    {!Phom_graph.Transitive_closure.compute}); a truncated closure is a
    sound under-approximation, so anytime results remain valid. *)

val candidates : t -> int array array
(** Initial candidate lists: [u ∈ cands.(v)] iff [mat(v,u) ≥ ξ] and, when
    [v] carries a self-loop, [u] lies on a cycle of [g2] (so the loop edge
    has a path to map to). Rows are sorted by decreasing similarity.

    Memoized per instance: the first call derives the table from [mat] and
    [tc2], later calls (from any solver, on any domain) return the same
    table. Callers must treat the rows as read-only. *)

val preset_candidates : t -> int array array -> unit
(** Install a candidate table computed earlier for an identical
    [(g1, g2, mat, ξ, tc2)] — the matching daemon's artifact cache uses
    this so warm queries skip the derivation entirely. The table must have
    one row per [g1] node.

    @raise Invalid_argument on a row-count mismatch. *)

val qual_card : t -> Mapping.t -> float
val qual_sim : weights:float array -> t -> Mapping.t -> float

val is_valid : ?injective:bool -> t -> Mapping.t -> bool
(** Validity of a mapping for this instance. *)
