(** The daemon's warm state: a catalog of named graphs and similarity
    matrices loaded once, plus a byte-accounted {!Lru} artifact cache for
    the derived structures every query needs — closure matrices of [G2⁺]
    (keyed by graph name, content signature and hop bound), computed
    similarity matrices (keyed by the graph pair, similarity kind and
    label signatures), and candidate tables (keyed by pair, kind, hop
    bound, ξ and the signature of the {e relevant} components).

    This is the amortization the paper's optimizations assume: the
    closure/compression structures of a data graph are computed once and
    reused across many patterns, instead of being rebuilt by every process
    invocation.

    {b Content signatures.} Every loaded graph carries CRCs of its content
    — per weak component, for the label array, and for the whole graph —
    and every cache key embeds the signature of the content it was derived
    from. Mutating a graph ({!edit}) therefore invalidates {e implicitly}:
    keys carrying the old signature are simply never looked up again (and
    age out of the LRU), while an edit that exactly undoes a previous one
    restores the old signatures and resurrects the still-valid artifacts.
    Candidate and count keys embed only the signatures of components that
    contain threshold-clearing nodes, so edits confined to irrelevant
    components keep those artifacts warm.

    All operations are domain-safe (catalog tables and cache each sit
    behind a mutex), so solve jobs running on pool workers can consult the
    cache while the accept loop stays responsive.

    {b Budget rule:} artifact computations draw on the requesting query's
    budget. An artifact whose computation was cut short by a tripped budget
    is a sound under-approximation for {e that} query's anytime answer, but
    it is {e never inserted into the cache} — a later, fully-budgeted query
    must not be poisoned by a truncated closure. *)

type t

val create :
  ?max_graph_bytes:int ->
  ?max_mat_bytes:int ->
  ?cache_bytes:int ->
  unit ->
  t
(** Size caps default to the hardened 64 MiB {!Phom_graph.Graph_io} /
    {!Phom_sim.Simmat} limits; [cache_bytes] defaults to 256 MiB. *)

val valid_name : string -> bool
(** Catalog names: 1–64 chars from [A–Z a–z 0–9 _ . -]. The protocol is
    space-delimited, so names can never contain whitespace. *)

(** {1 The catalog proper} *)

val load_graph :
  t -> name:string -> path:string -> (Phom_graph.Digraph.t, string) result
(** Parse the phg file at [path] (under the size cap) and register it under
    [name]. Names are a single namespace shared with matrices. Loading over
    an existing name is idempotent when the file's canonical content is
    byte-identical to what is loaded (the call succeeds and changes
    nothing — this is what lets a failover router replay [load] lines to a
    recovered replica); a name collision with {e different} content is
    refused — [unload] it first. *)

val load_mat :
  t -> name:string -> path:string -> (Phom_sim.Simmat.t, string) result
(** Same, for a phs similarity-matrix file. *)

val unload : t -> string -> (int, string) result
(** Remove a graph or matrix by name and invalidate every cached artifact
    that was derived from it. Returns the number of artifacts dropped;
    [Error] if the name is not loaded. Warm-start solutions involving the
    name are dropped too. An in-flight solve that pinned the name before
    the unload still completes from its snapshot, but can no longer insert
    into the cache (the unload bumps an internal generation counter that
    insertion checks), so purged state is never resurrected. *)

val list :
  t ->
  (string * Phom_graph.Digraph.t) list
  * (string * Phom_sim.Simmat.t) list
(** Loaded graphs and matrices, each sorted by name. *)

(** {1 Single-edge edits} *)

type edit_result = {
  applied : bool;
      (** [false] when [expect_crc] already matched the live state — the
          edit had been applied before (a replayed or retried line) and
          nothing changed *)
  edges : int;  (** edge count after the call *)
  crc : string;  (** content signature ([pin_sig]) after the call *)
  closures : int;
      (** cached closure artifacts carried across the edit (re-keyed under
          the new signature) instead of being dropped *)
}

val edit :
  ?expect_crc:string ->
  t ->
  name:string ->
  op:[ `Add | `Del ] ->
  v:int ->
  w:int ->
  (edit_result, string) result
(** Apply one edge edit to the loaded graph [name], in place (the catalog
    entry is replaced; other snapshots of the old value stay valid). The
    graph's signature is recomputed in one pass (the label signature is
    carried), and every cached closure of [name] is re-keyed under the new
    signature, so a pin of the edited graph hits its closure. A full
    closure the edit cannot change (an added v→w where v already reached
    w, a deleted one where v still reaches w) is carried as it is; the
    others are recomputed on the edited graph by
    {!Phom_graph.Bounded_closure.relation}, under the catalog lock.

    Adding an edge that is already present, deleting one that is absent,
    or naming an endpoint out of range is an [Error] and changes nothing.

    [expect_crc] makes the edit idempotent for replay: when it equals the
    {e current} signature the call is a no-op success ([applied = false]);
    when the post-edit signature would differ from it, the edit is refused
    before committing. Routers and journal replay use this so re-delivered
    edit lines converge instead of double-applying. *)

(** {1 Similarity specification} *)

type sim =
  | Equality  (** label equality (the conventional-matching matrix) *)
  | Shingles  (** w-shingling over labels *)
  | Named of string  (** a preloaded matrix from the catalog *)

val sim_to_string : sim -> string
(** ["equality"], ["shingles"], ["mat:<name>"]. *)

(** {1 Pinned snapshots}

    A request that computes on pool workers concurrently with edits and
    unloads must not read one version of a graph and key its artifacts
    against another. {!pin} captures a graph's value and signatures
    atomically; the [_pinned] artifact functions compute against the pin
    and key against its signatures, so a mutation between prepare and job
    makes lookups miss (and, for an unload, insertion refuse) rather than
    corrupt. *)

type pin = {
  pin_name : string;
  pin_graph : Phom_graph.Digraph.t;
  pin_sig : string;  (** whole-content signature at pin time *)
  pin_lsig : string;  (** label signature at pin time *)
  pin_rep : int array;  (** node → weak-component representative *)
  pin_crc : string array;  (** node → its component's content CRC *)
}

val pin : t -> string -> (pin, string) result
val pin_mat : t -> string -> (Phom_sim.Simmat.t * string, string) result
(** A named matrix and its content CRC (matrices are immutable, so the
    value itself is the snapshot). *)

val pin_sim : t -> sim -> ((Phom_sim.Simmat.t * string) option, string) result
(** {!pin_mat} for a [Named] similarity, [None] for a computed one — the
    [matv] the [_pinned] functions below take. *)

(** {1 Cached artifacts} *)

type provenance = Hit | Miss | Catalog
(** [Catalog] marks state served straight from the catalog proper (a named
    matrix), which is neither a cache hit nor a recomputation. *)

val provenance_name : provenance -> string
(** ["hit"], ["miss"], ["catalog"]. *)

val closure_pinned :
  ?budget:Phom_graph.Budget.t ->
  t ->
  pin:pin ->
  hops:int option ->
  Phom_graph.Bitmatrix.t * provenance
(** The closure artifact of the pinned graph, via the unified
    {!Phom_graph.Bounded_closure.relation} entry point ([hops = None] is
    the full transitive closure), keyed by the pin's signature. *)

val closure :
  ?budget:Phom_graph.Budget.t ->
  t ->
  name:string ->
  hops:int option ->
  (Phom_graph.Bitmatrix.t * provenance, string) result
(** {!closure_pinned} against a pin taken now. *)

val similarity_pinned :
  ?matv:Phom_sim.Simmat.t * string ->
  t ->
  p1:pin ->
  p2:pin ->
  sim:sim ->
  (Phom_sim.Simmat.t * provenance, string) result
(** The similarity artifact for the pinned pair, keyed by their label
    signatures. [Named] similarities require [matv] (from {!pin_mat}) and
    come back with provenance [Catalog] after a dimension check. *)

val similarity :
  t ->
  g1:string ->
  g2:string ->
  sim:sim ->
  (Phom_sim.Simmat.t * provenance, string) result
(** {!similarity_pinned} against pins taken now. *)

val candidates_pinned :
  ?budget:Phom_graph.Budget.t ->
  ?matv:Phom_sim.Simmat.t * string ->
  t ->
  instance:Phom.Instance.t ->
  p1:pin ->
  p2:pin ->
  sim:sim ->
  hops:int option ->
  provenance
(** Prime [instance] with the candidate table keyed by pair, kind, hops, ξ
    and the pair's {e relevant-component} signature: on a hit the table is
    installed via {!Phom.Instance.preset_candidates}; on a miss it is
    derived from the instance and cached. The instance must have been built
    from the pins' own graphs and artifacts for the key to be truthful. *)

val instance_pinned :
  ?budget:Phom_graph.Budget.t ->
  ?matv:Phom_sim.Simmat.t * string ->
  t ->
  p1:pin ->
  p2:pin ->
  sim:sim ->
  hops:int option ->
  xi:float ->
  (Phom.Instance.t * (string * provenance) list, string) result
(** The artifact chain every daemon solve and count (and every replayed
    candidate or count key) derives its instance through:
    {!closure_pinned} of [p2], {!similarity_pinned}, the instance at [xi],
    then {!candidates_pinned}, which primes it. Returns the instance and
    the chain's provenance as [[("closure", _); ("mat", _); ("cands", _)]],
    the order a reply's [cache=] field prints. [Error] when the similarity
    fails its dimension check or the instance cannot be built. *)

val count_pinned :
  ?budget:Phom_graph.Budget.t ->
  ?pool:Phom_parallel.Pool.t ->
  ?matv:Phom_sim.Simmat.t * string ->
  t ->
  instance:Phom.Instance.t ->
  p1:pin ->
  p2:pin ->
  sim:sim ->
  hops:int option ->
  Phom.Dp.count_result * provenance
(** The mapping-count artifact (the [count] verb's answer, a few machine
    words), same keying as {!candidates_pinned}. On a miss the
    tree-decomposition DP runs under [budget]; only a [Complete] run is
    cached, so a hit can honestly report [Complete]. A tripped run returns
    its anytime [count = 0] result and is never inserted. [pool] is
    ignored — the DP runs on the caller's domain; it is kept only so that
    existing callers (phombench's tracer) still compile. *)

(** {1 The warm-start solution store}

    The daemon remembers the last mapping per solve shape so a re-solve
    after an {!edit} can seed {!Phom.Api.solve_within}'s [warm_start].
    Keys are chosen by the caller (the daemon uses the request shape
    {e without} signatures, precisely so recall works across edits).
    Bounded; dropped for names an {!unload} removes. *)

val remember_solution :
  t -> key:string -> g1:string -> g2:string -> Phom.Mapping.t -> unit

val recall_solution : t -> key:string -> Phom.Mapping.t option

(** {1 Durability}

    The daemon persists the catalog as checksummed {!Persist} snapshots
    plus a {!Journal} of mutations since the last snapshot. Restore layers
    its own defenses on top of Persist's CRC verification: payloads must
    decode, names must validate, artifacts must match their key's shape
    {e and signature} against the already-restored graphs. Anything that
    fails any check is quarantined (skipped and counted), never served. *)

val set_on_event : t -> (Journal.event -> unit) option -> unit
(** Install (or clear) the journal hook. Every successful [load_graph] /
    [load_mat] / [unload] / applied [edit] and every cache insertion emits
    one event {e after} the mutation lands. The daemon sets this once,
    after recovery, so replay does not journal itself. *)

val export : t -> Persist.record list
(** The catalog's full warm state as snapshot records: graphs and matrices
    first (restore validates artifacts against them), then cache artifacts
    in least-recently-used-first order so re-insertion reproduces recency. *)

val restore_record : t -> Persist.record -> (unit, string) result
(** Restore one snapshot record. [Error] means the record is quarantined:
    undecodable payload, invalid or duplicate name, unknown artifact key,
    or an artifact whose shape or signature contradicts the restored
    graphs. *)

val apply_event : t -> Journal.event -> (unit, string) result
(** Replay one journal event. Load events re-read the source file and
    verify its canonical serialization still matches the journaled
    checksum — a drifted file is unloaded again and reported, never served
    under the stale name. Edit events re-apply the edit and verify the
    resulting signature converges to the journaled one (idempotently, via
    {!edit}'s [expect_crc]). Artifact events recompute the artifact through
    the normal serving path (deterministic, so the warm cache converges to
    its pre-crash contents). *)
