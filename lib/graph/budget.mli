(** Unified resource budgets with anytime semantics.

    The paper's decision problems are NP-complete and its optimization
    problems are inapproximable within [O(1/n^{1-ε})] (Theorems 4.1–4.3), so
    every solver in this repository can blow up on adversarial inputs. A
    {!t} is a single mutable token carrying a wall-clock deadline, a step
    budget and an external cancellation hook; one token is threaded through
    an entire pipeline (closure construction, prefiltering, search) so the
    phases draw on a common allowance.

    Solvers call {!tick} once per unit of work (a search node, a fixpoint
    pass, a BFS visit). The step counter is checked on every tick; the
    clock and the cancellation hook are only polled on power-of-two ticks
    and every 1024 ticks thereafter, so ticking costs an increment and a
    compare on the hot path. Exhaustion is {e sticky}: once a token trips,
    every subsequent {!tick} returns [false] immediately, which lets deep
    recursions unwind cheaply while still returning the best valid result
    found so far. *)

type reason =
  | Deadline  (** the wall-clock deadline passed *)
  | Steps  (** the step budget was consumed *)
  | Cancelled  (** {!cancel} was called or the cancellation hook fired *)

type status =
  | Complete  (** the solver ran to its natural end *)
  | Exhausted of reason
      (** the budget tripped; the accompanying result is the best found so
          far, valid but possibly suboptimal *)

type t

val unlimited : unit -> t
(** A token that never trips. *)

val create :
  ?anchor:float -> ?timeout:float -> ?steps:int -> ?cancel:(unit -> bool) -> unit -> t
(** [create ?anchor ?timeout ?steps ?cancel ()] trips when [timeout]
    wall-clock seconds have elapsed since [anchor] (default: now, as
    [Unix.gettimeofday ()] — pass the process start time to charge startup
    work against the deadline), when [steps] ticks have been consumed, or
    when [cancel ()] returns [true] at a poll point — whichever comes
    first. Omitted dimensions are unlimited.

    @raise Invalid_argument on a negative [timeout] or [steps]. *)

val trip_after : int -> t
(** [trip_after n] is a deterministic fault-injection token: it permits
    exactly [n] ticks and trips on the next one, independent of the clock.
    The test suite drives every solver over a grid of trip points with
    this. Equivalent to [create ~steps:n ()]. *)

val tick : t -> bool
(** Consume one unit of work. [true] means keep going; [false] means the
    budget is exhausted (now or earlier — exhaustion is sticky). *)

exception Exhausted_budget
(** Raised by {!tick_exn}; never escapes a solver — each catches it at its
    boundary and returns its best-so-far result with an [Exhausted]
    status. *)

val tick_exn : t -> unit
(** {!tick}, raising {!Exhausted_budget} instead of returning [false] —
    convenient inside deep recursions that unwind via an exception. *)

val poll : t -> bool
(** Re-check the clock and the cancellation hook immediately, bypassing the
    amortization; [true] means still within budget. Does not consume a
    step. Callers use this for a final "did we make the deadline?" check
    after fast paths that tick too few times to hit a poll point. *)

val exhausted : t -> bool
(** Has the token tripped? Does not consume a step and does not poll. *)

val cancel : t -> unit
(** Trip the token from outside (e.g. a signal handler or a supervising
    thread). Idempotent; an earlier trip reason wins. Cancelling a token
    that has forked children (see {!fork}) trips the children too, at
    their next poll point. *)

(** {1 Domain-safe forking}

    A plain token is a single-domain mutable value. To share one allowance
    across the domains of a {!Phom_parallel.Pool}, the owning domain forks
    one {e child token} per parallel task and joins them back afterwards:

    {[
      let children = List.map (fun w -> (w, Budget.fork b)) work in
      let results = Pool.map pool (fun (w, c) -> solve ~budget:c w) ... in
      List.iter (fun (_, c) -> Budget.join b c) children
    ]}

    The children draw steps from a single atomic ledger in leases of 128
    steps. The grants never exceed the parent's remaining allowance, so the
    family never consumes more ticks than the parent could have. The cap is
    an upper bound, not an exact one: a child's unused lease (at most 127
    steps) is never returned to the ledger, so once a child has finished,
    its siblings can trip up to 127 steps per finished child before the
    parent alone would have. The children share the parent's wall-clock
    deadline and cancellation hook, and the first member to trip — for any
    reason — publishes the trip so every sibling stops at its next poll
    point (first-exhausted cancels the family). Anytime semantics survive:
    each task returns its best-so-far result, exactly as in sequential
    runs.

    Rules: {!fork} must be called by the domain that owns the token being
    forked (pre-fork the children before handing them to pool tasks); a
    parent must not {!tick} while its children are live; {!join} folds a
    child's consumption and trip reason back into the parent, so after
    joining every child, {!steps_used} of the parent counts the whole
    family's work and {!status} reports the family's first trip. Forks do
    not nest: a child's steps are leases it already drew, so joining a
    grandchild into it would charge the grandchild's steps to the ledger
    twice. The one fork in the library, the [partition] fan-out of
    [Phom.Api.solve_within], forks a plain token once per component. A
    user-supplied [cancel] hook is called from worker domains and must be
    domain-safe. *)

val fork : t -> t
(** [fork parent] is a child token drawing on [parent]'s remaining
    allowance, for use by exactly one parallel task. Forking an
    already-exhausted parent yields an already-tripped child.

    @raise Invalid_argument if [parent] was itself created by {!fork}. *)

val join : t -> t -> unit
(** [join parent child] folds [child]'s step consumption and trip status
    back into [parent]. Call it after the child's task has finished.

    @raise Invalid_argument if [child] was not created by {!fork}. *)

val status : t -> status
val why : t -> reason option
val steps_used : t -> int
(** Ticks consumed so far — exposed for tests and diagnostics. *)

val string_of_reason : reason -> string
(** ["deadline"], ["steps"], ["cancelled"]. *)

val string_of_status : status -> string
(** ["complete"] or ["exhausted (<reason>)"]. *)
