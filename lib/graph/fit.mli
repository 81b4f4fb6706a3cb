(** Candidate fits: which positions of a pattern node's candidate row keep
    its edges to the pattern nodes already placed. The branch and bound
    asks when it comes back to a depth, the tree-decomposition DP at each
    introduce node.

    A query ANDs one bitmask over the row per edge whose other endpoint is
    placed: the positions whose data node reaches the endpoint's data node
    in the closure (is reached from it, for an incoming edge). A mask is
    built on first use and kept for the life of the fit, which alone holds
    it. Memory: at most one [|row| × |other row|] bit matrix per edge, plus
    a [|row|]-bit buffer. *)

type t

val make : tc2:Bitmatrix.t -> int array -> (int * int array * bool) array -> t
(** [make ~tc2 row edges] is the fit of the node with candidate row [row]
    (data nodes). An edge [(slot, other, out)] goes to a node with
    candidate row [other], leaving this one when [out]; [slot] is where a
    query holds that node's position in [other]. *)

val iter : t -> int array -> int -> (int -> unit) -> unit
(** [iter fit at off f] applies [f], in ascending order, to each position
    [i] of [row] such that every edge [(slot, other, out)] with
    [j = at.(off + slot) >= 0] has [tc2] hold [row.(i) → other.(j)] when
    [out], [other.(j) → row.(i)] otherwise; a negative [j] is unplaced, and
    with nothing placed [f] sees every position. The positions sit in the
    fit's one buffer, so [f] must not query the same fit. *)
