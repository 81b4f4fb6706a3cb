(** The phomd line protocol (revision {!Version.protocol}).

    Requests and replies are single lines of UTF-8 text; tokens are
    separated by one or more spaces, so catalog names and file paths must
    not contain whitespace. Every reply is exactly one line starting with
    [ok] or [error], which makes client framing trivial.

    Grammar:
    {v
    request  ::= "version" | "ping" | "health"
               | "list" | "stats" | "shutdown" | "quit"
               | "load" "graph" NAME PATH
               | "load" "mat" NAME PATH
               | "unload" NAME
               | "addedge" GRAPH V W ["--crc" HEX]
               | "deledge" GRAPH V W ["--crc" HEX]
               | "solve" PROBLEM G1 G2 flag*
               | "count" G1 G2 cflag*
    PROBLEM  ::= "card" | "card11" | "sim" | "sim11"      (Table 1)
    flag     ::= cflag
               | "--algorithm" ("direct" | "naive" | "exact" | "dp")
               | "--partition" | "--compress"
    cflag    ::= "--mat" NAME | "--sim" ("equality" | "shingles")
               | "--xi" FLOAT | "--hops" INT
               | "--timeout" SECONDS | "--steps" INT
               | "--jobs" INT
    v}

    [count] (protocol 4) counts the total p-hom mappings of the pattern
    into the data graph under the same candidate semantics as [solve]; it
    always runs the tree-decomposition DP, so the solve-only flags
    [--algorithm], [--partition] and [--compress] are rejected on it.
    [--compress] is also refused beside [--hops]: compression is sound only
    on the full closure.

    [addedge]/[deledge] (protocol 5) mutate a loaded graph in place — one
    directed edge per request. The daemon carries the graph's cached
    closures to the edited graph and re-keys them under the new content
    signature; other artifacts are keyed by content and simply stop
    matching. The reply reports the post-edit edge count, the content
    signature ([crc=]) and the closures carried ([closures=]).
    [--crc] pins the {e post-edit} signature: if the live graph already
    carries it the request is an acknowledged no-op ([applied=0]), and if
    the edit would produce a different signature it is refused — this is
    what makes re-delivered edit lines (router replay, retries) converge
    instead of double-applying.

    [--jobs INT] is parsed and validated (an integer >= 1) on [solve] and
    [count] and has no effect: every solve and count runs on the request's
    own job, so existing request lines that carry it keep their meaning.
    [--timeout]/[--steps] bound this one request (they
    default to the daemon's [--default-timeout]/[--default-steps]); replies
    then carry [status=exhausted(...)] with the best-so-far answer, exactly
    like the CLI's exit-code-2 contract. *)

type solve = {
  problem : Phom.Api.problem;
  g1 : string;
  g2 : string;
  sim : Catalog.sim;  (** default [Equality]; [--mat] selects [Named] *)
  xi : float;  (** default 0.75 *)
  hops : int option;
  timeout : float option;
  steps : int option;
  algorithm : Phom.Api.algorithm;
  partition : bool;
  compress : bool;
}

type count = {
  g1 : string;
  g2 : string;
  sim : Catalog.sim;  (** default [Equality]; [--mat] selects [Named] *)
  xi : float;  (** default 0.75 *)
  hops : int option;
  timeout : float option;
  steps : int option;
}

type edit = {
  name : string;
  op : [ `Add | `Del ];
  v : int;
  w : int;
  crc : string option;  (** [--crc]: the expected post-edit signature *)
}

type request =
  | Version
  | Ping  (** liveness: replies [ok pong] even while draining *)
  | Health
      (** readiness: one line of [k=v] counters led by
          [state=(ready|degraded|draining)] — see {!Daemon} *)
  | List
  | Stats
  | Load_graph of { name : string; path : string }
  | Load_mat of { name : string; path : string }
  | Unload of string
  | Edit of edit
  | Solve of solve
  | Count of count
  | Shutdown
  | Quit

val verbs : string list
(** Every verb the parser accepts, in documentation order. The
    unknown-command error and the client's usage hint are both generated
    from this list, so it cannot drift from {!parse}. *)

val verb_summary : string
(** {!verbs} joined with [", "]. *)

val parse : string -> (request, string) result
(** Parse one request line. Errors are one-line human-readable messages
    (sent back verbatim as [error ...] replies) and include flag-validation
    failures: ξ outside [0,1], hops < 1, a non-positive timeout, negative
    steps, or [--mat] combined with [--sim]. *)

val problem_token : Phom.Api.problem -> string
(** ["card"], ["card11"], ["sim"], ["sim11"] — the inverse of the PROBLEM
    tokens accepted by {!parse}. *)

val sanitize : string -> string
(** Make a reply safe to put on the wire as one line: if it contains any
    control byte (smuggled in by a hostile request that gets echoed back,
    e.g. an unknown command), the whole reply is [String.escaped];
    well-behaved replies pass through untouched. The daemon runs every
    outbound reply through this. *)
