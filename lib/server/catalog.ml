module Obs = Phom_obs.Obs
module D = Phom_graph.Digraph
module BM = Phom_graph.Bitmatrix
module Budget = Phom_graph.Budget
module Simmat = Phom_sim.Simmat
module Shingle = Phom_sim.Shingle

type sim = Equality | Shingles | Named of string

let sim_to_string = function
  | Equality -> "equality"
  | Shingles -> "shingles"
  | Named n -> "mat:" ^ n

type provenance = Hit | Miss | Catalog

let provenance_name = function Hit -> "hit" | Miss -> "miss" | Catalog -> "catalog"

(* ---- content signatures ----

   Every loaded graph carries content-derived signatures so cache keys can
   say precisely which state they were computed against:

   - a per-weak-component CRC of the component's canonical content (member
     ids, labels, and edges — an edge's endpoints always share a weak
     component, so edges belong to exactly one);
   - the graph signature [gsig]: a CRC over the sorted per-component
     (representative, crc) pairs — the whole graph's content in one token;
   - the label signature [lsig]: a CRC of the label array alone, which
     single-edge edits never change.

   Being content-derived (not a counter), signatures survive restarts and
   snapshot restores, and an edit that perfectly undoes another restores
   them exactly — cached artifacts keyed under the old signature become
   valid again instead of being lost. Invalidation is implicit: a key whose
   signature no longer matches the live state is simply never looked up
   again, and the LRU evicts it under pressure. *)

type gentry = {
  g : D.t;
  gsig : string;  (** whole-content signature *)
  lsig : string;  (** label-only signature (edit-invariant) *)
  rep : int array;  (** node -> smallest node id of its weak component *)
  comp_crc : string array;  (** node -> its weak component's content CRC *)
}

let analyze g =
  let n = D.n g in
  let comps = Phom_graph.Components.compute g in
  let reps = Array.make comps.Phom_graph.Components.count max_int in
  let comp_of = comps.Phom_graph.Components.comp in
  for v = 0 to n - 1 do
    if v < reps.(comp_of.(v)) then reps.(comp_of.(v)) <- v
  done;
  let bufs =
    Array.init comps.Phom_graph.Components.count (fun _ -> Buffer.create 64)
  in
  for v = 0 to n - 1 do
    Buffer.add_string bufs.(comp_of.(v))
      (Printf.sprintf "n %d %s\n" v (D.label g v))
  done;
  D.iter_edges
    (fun u v ->
      Buffer.add_string bufs.(comp_of.(u)) (Printf.sprintf "e %d %d\n" u v))
    g;
  let crcs = Array.map (fun b -> Persist.crc32_hex (Buffer.contents b)) bufs in
  let order = Array.init (Array.length crcs) Fun.id in
  Array.sort (fun a b -> compare reps.(a) reps.(b)) order;
  let summary =
    String.concat ";"
      (Array.to_list
         (Array.map (fun c -> Printf.sprintf "%d:%s" reps.(c) crcs.(c)) order))
  in
  let lbuf = Buffer.create (16 * n) in
  for v = 0 to n - 1 do
    Buffer.add_string lbuf (D.label g v);
    Buffer.add_char lbuf '\x00'
  done;
  {
    g;
    gsig = Persist.crc32_hex summary;
    lsig = Persist.crc32_hex (Buffer.contents lbuf);
    rep = Array.init n (fun v -> reps.(comp_of.(v)));
    comp_crc = Array.init n (fun v -> crcs.(comp_of.(v)));
  }

(* cache keys carry catalog names plus content signatures: a name says
   what the artifact is for, the signature says which content it was
   computed from, so edits invalidate implicitly (stale-signature keys are
   never looked up) and an unload still purges by name *)
type key =
  | K_closure of string * string * int option  (** graph, gsig, hops *)
  | K_matrix of string * string * string * string
      (** g1, g2, sim_to_string, signature (lsig pair / named-mat crc) *)
  | K_cands of string * string * string * int option * float * string
      (** g1, g2, sim, hops, ξ, pair signature (relevant components) *)
  | K_count of string * string * string * int option * float * string
      (** g1, g2, sim, hops, ξ, pair signature — the count answer itself *)

type artifact =
  | A_closure of BM.t
  | A_matrix of Simmat.t
  | A_cands of int array array
  | A_count of { count : int; exact : bool; width : int }

let artifact_weight = function
  | A_closure m -> BM.byte_size m
  | A_matrix m -> Simmat.byte_size m
  | A_cands rows ->
      let words = Array.fold_left (fun acc r -> acc + 1 + Array.length r) 1 rows in
      words * (Sys.word_size / 8)
  | A_count _ -> 4 * (Sys.word_size / 8)

type entry = Graph of gentry | Mat of { m : Simmat.t; crc : string }

type t = {
  entries : (string, entry) Hashtbl.t;
  lock : Mutex.t;
  cache : (key, artifact) Lru.t;
  max_graph_bytes : int;
  max_mat_bytes : int;
  mutable gen : int;
      (** invalidation generation, bumped by every [unload]: an artifact
          computed against an older generation is stale and must not enter
          the cache *)
  solutions : (string, string * string * Phom.Mapping.t) Hashtbl.t;
      (** last mapping per solve shape (the warm-start store); the value
          carries the two graph names so [unload] can drop what refers to
          them *)
  mutable on_event : (Journal.event -> unit) option;
      (** the daemon's journal hook; set once before serving starts *)
}

let default_max_bytes = 64 * 1024 * 1024

(* the cache metrics are probes over the Lru's own atomic counters — the
   registry reads the very cells reply provenance increments, so the two
   views cannot drift (a fresh catalog re-points the probes at itself) *)
let register_metrics t =
  let fi f = fun () -> float_of_int (f ()) in
  Obs.register_probe "phom_cache_hits_total" (fi (fun () -> Lru.hits t.cache));
  Obs.register_probe "phom_cache_misses_total"
    (fi (fun () -> Lru.misses t.cache));
  Obs.register_probe "phom_cache_evictions_total"
    (fi (fun () -> Lru.evictions t.cache));
  Obs.register_probe "phom_cache_entries"
    (fi (fun () -> (Lru.stats t.cache).entries));
  Obs.register_probe "phom_cache_bytes"
    (fi (fun () -> (Lru.stats t.cache).bytes));
  Obs.register_probe "phom_cache_capacity_bytes"
    (fi (fun () -> (Lru.stats t.cache).capacity_bytes));
  let count pred () =
    Mutex.lock t.lock;
    let n = Hashtbl.fold (fun _ e acc -> if pred e then acc + 1 else acc) t.entries 0 in
    Mutex.unlock t.lock;
    float_of_int n
  in
  Obs.register_probe "phom_catalog_graphs"
    (count (function Graph _ -> true | Mat _ -> false));
  Obs.register_probe "phom_catalog_mats"
    (count (function Mat _ -> true | Graph _ -> false))

let create ?(max_graph_bytes = default_max_bytes)
    ?(max_mat_bytes = default_max_bytes)
    ?(cache_bytes = 256 * 1024 * 1024) () =
  let t =
    {
      entries = Hashtbl.create 16;
      lock = Mutex.create ();
      cache = Lru.create ~capacity_bytes:cache_bytes ~weight:artifact_weight ();
      max_graph_bytes;
      max_mat_bytes;
      gen = 0;
      solutions = Hashtbl.create 16;
      on_event = None;
    }
  in
  register_metrics t;
  t

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let set_on_event t f = t.on_event <- f
let emit t e = match t.on_event with Some f -> f e | None -> ()
let generation t = locked t (fun () -> t.gen)

let valid_name name =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length name in
  n >= 1 && n <= 64 && String.for_all ok_char name

(* [same old v] returns the already-loaded value when [v] is
   content-identical to it — a reload of the same bytes is idempotent
   (a failover router replays [load] lines to a recovered replica), while
   a name collision with *different* content is still refused *)
let register t ~name ~what ~same make =
  if not (valid_name name) then
    Error
      (Printf.sprintf
         "invalid name %S (1-64 chars from A-Z a-z 0-9 _ . -)" name)
  else
    match make () with
    | Error _ as e -> e
    | Ok v ->
        locked t (fun () ->
            match Hashtbl.find_opt t.entries name with
            | None ->
                Hashtbl.replace t.entries name (what v);
                Ok (`Fresh v)
            | Some old -> (
                match same old v with
                | Some existing -> Ok (`Same existing)
                | None ->
                    Error
                      (Printf.sprintf
                         "name %s is already loaded (unload it first)" name)))

(* journal load events carry a checksum of the loaded value's canonical
   serialization, so replay can refuse a source file that drifted *)
let graph_crc g = Persist.crc32_hex (Phom_graph.Graph_io.to_string g)
let mat_crc m = Persist.crc32_hex (Simmat.to_string m)

let load_graph t ~name ~path =
  match
    register t ~name
      ~what:(fun g -> Graph (analyze g))
      ~same:(fun old g ->
        match old with
        | Graph o when graph_crc o.g = graph_crc g -> Some o.g
        | _ -> None)
      (fun () -> Phom_graph.Graph_io.load ~max_bytes:t.max_graph_bytes path)
  with
  | Ok (`Fresh g) ->
      emit t (Journal.Load_graph { name; path; crc = graph_crc g });
      Ok g
  (* same-content reload: state unchanged, so no journal event *)
  | Ok (`Same g) -> Ok g
  | Error _ as e -> e

let load_mat t ~name ~path =
  match
    register t ~name
      ~what:(fun m -> Mat { m; crc = mat_crc m })
      ~same:(fun old m ->
        match old with
        | Mat o when o.crc = mat_crc m -> Some o.m
        | _ -> None)
      (fun () -> Simmat.load ~max_bytes:t.max_mat_bytes path)
  with
  | Ok (`Fresh m) ->
      emit t (Journal.Load_mat { name; path; crc = mat_crc m });
      Ok m
  | Ok (`Same m) -> Ok m
  | Error _ as e -> e

let derived_from name = function
  | K_closure (g, _, _) -> g = name
  | K_matrix (a, b, s, _) | K_cands (a, b, s, _, _, _) | K_count (a, b, s, _, _, _)
    ->
      a = name || b = name || s = "mat:" ^ name

let unload t name =
  let result =
    locked t (fun () ->
        if Hashtbl.mem t.entries name then begin
          Hashtbl.remove t.entries name;
          (* the invalidation barrier: an in-flight solve that resolved
             [name] before this point fails its generation check and can
             never re-insert (resurrect) an artifact derived from it *)
          t.gen <- t.gen + 1;
          Hashtbl.iter
            (fun k (g1, g2, _) ->
              if g1 = name || g2 = name then Hashtbl.remove t.solutions k)
            (Hashtbl.copy t.solutions);
          Ok (Lru.remove_if t.cache (derived_from name))
        end
        else Error (Printf.sprintf "name %s is not loaded" name))
  in
  (match result with Ok _ -> emit t (Journal.Unload name) | Error _ -> ());
  result

(* ---- pinned snapshots ----

   [pin] captures one graph's value and signatures under the lock; jobs
   that run later (on pool workers, concurrently with edits and unloads)
   compute against the pinned value and look up / insert cache entries
   under the pinned signature. A catalog mutation between prepare and job
   can therefore never make a job read one version and key another: its
   lookups miss (signature mismatch) and it recomputes from its own
   snapshot. Entries are immutable once installed — edits install a fresh
   [gentry] — so sharing the arrays is safe. *)

type pin = {
  pin_name : string;
  pin_graph : D.t;
  pin_sig : string;
  pin_lsig : string;
  pin_rep : int array;
  pin_crc : string array;
}

let pin_of_gentry name ge =
  {
    pin_name = name;
    pin_graph = ge.g;
    pin_sig = ge.gsig;
    pin_lsig = ge.lsig;
    pin_rep = ge.rep;
    pin_crc = ge.comp_crc;
  }

let pin t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.entries name with
      | Some (Graph ge) -> Ok (pin_of_gentry name ge)
      | Some (Mat _) ->
          Error (Printf.sprintf "%s is a similarity matrix, not a graph" name)
      | None -> Error (Printf.sprintf "unknown graph %s (load it first)" name))

let pin_mat t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.entries name with
      | Some (Mat { m; crc }) -> Ok (m, crc)
      | Some (Graph _) ->
          Error (Printf.sprintf "%s is a graph, not a similarity matrix" name)
      | None ->
          Error (Printf.sprintf "unknown matrix %s (load it first)" name))

(* a named matrix is pinned alongside the graphs, so a job never mixes a
   pre-edit graph with a matrix reloaded after its unload *)
let pin_sim t = function
  | Named n -> Result.map Option.some (pin_mat t n)
  | Equality | Shingles -> Ok None

let graph t name = Result.map (fun p -> p.pin_graph) (pin t name)
let mat t name = Result.map fst (pin_mat t name)

(* ---- artifact key tokens (the journal's and snapshot's key form) ---- *)

let hops_token = function None -> "full" | Some k -> string_of_int k

let hops_of_token = function
  | "full" -> Some None
  | s -> (
      match int_of_string_opt s with
      | Some k when k >= 1 -> Some (Some k)
      | _ -> None)

(* '/' as separator is unambiguous: catalog names cannot contain it, the
   sim token is "equality", "shingles" or "mat:<name>", and signatures are
   built from hex CRCs and the separators ':' ',' ';' '|' '.'; ξ uses the
   hexadecimal float form for an exact round trip *)
let token_of_key = function
  | K_closure (g, s, hops) ->
      Printf.sprintf "closure/%s/%s/%s" g (hops_token hops) s
  | K_matrix (g1, g2, sim, s) ->
      Printf.sprintf "matrix/%s/%s/%s/%s" g1 g2 sim s
  | K_cands (g1, g2, sim, hops, xi, s) ->
      Printf.sprintf "cands/%s/%s/%s/%s/%h/%s" g1 g2 sim (hops_token hops) xi s
  | K_count (g1, g2, sim, hops, xi, s) ->
      Printf.sprintf "count/%s/%s/%s/%s/%h/%s" g1 g2 sim (hops_token hops) xi s

let key_of_token token =
  match String.split_on_char '/' token with
  | [ "closure"; g; h; s ] ->
      Option.map (fun hops -> K_closure (g, s, hops)) (hops_of_token h)
  | [ "matrix"; g1; g2; sim; s ] -> Some (K_matrix (g1, g2, sim, s))
  | [ "cands"; g1; g2; sim; h; xi; s ] -> (
      match (hops_of_token h, float_of_string_opt xi) with
      | Some hops, Some xi when xi >= 0. && xi <= 1. ->
          Some (K_cands (g1, g2, sim, hops, xi, s))
      | _ -> None)
  | [ "count"; g1; g2; sim; h; xi; s ] -> (
      match (hops_of_token h, float_of_string_opt xi) with
      | Some hops, Some xi when xi >= 0. && xi <= 1. ->
          Some (K_count (g1, g2, sim, hops, xi, s))
      | _ -> None)
  | _ -> None

let sim_of_string = function
  | "equality" -> Some Equality
  | "shingles" -> Some Shingles
  | s ->
      if String.length s > 4 && String.sub s 0 4 = "mat:" then
        Some (Named (String.sub s 4 (String.length s - 4)))
      else None

(* a pin is live when the catalog still carries the same name with the
   same content signature (call under the lock) *)
let pin_live_unlocked t p =
  match Hashtbl.find_opt t.entries p.pin_name with
  | Some (Graph ge) -> ge.gsig = p.pin_sig
  | Some (Mat _) | None -> false

(* cache insertion point for computed artifacts: refused when an unload has
   bumped the generation since the computation began, or when any pin the
   artifact was derived from is no longer the live state (the name was
   unloaded or edited after the job pinned its snapshot). The job's own
   answer is unaffected — it computed against an immutable snapshot — but
   its byproducts must not repopulate the cache for purged or superseded
   content. *)
let put_artifact t ~gen0 ~pins key art =
  locked t (fun () ->
      if t.gen = gen0 && List.for_all (pin_live_unlocked t) pins then begin
        Lru.put t.cache key art;
        emit t (Journal.Artifact (token_of_key key))
      end)

let list t =
  locked t (fun () ->
      let gs = ref [] and ms = ref [] in
      Hashtbl.iter
        (fun name -> function
          | Graph ge -> gs := (name, ge.g) :: !gs
          | Mat { m; _ } -> ms := (name, m) :: !ms)
        t.entries;
      let by_name (a, _) (b, _) = String.compare a b in
      (List.sort by_name !gs, List.sort by_name !ms))

(* only artifacts computed to their natural end are cached: a budget that
   tripped mid-computation leaves a sound under-approximation for the
   current query, which must not poison later ones *)
let cacheable budget =
  match budget with None -> true | Some b -> not (Budget.exhausted b)

let closure_pinned ?budget t ~pin ~hops =
  let gen0 = generation t in
  let key = K_closure (pin.pin_name, pin.pin_sig, hops) in
  match Lru.find t.cache key with
  | Some (A_closure m) -> (m, Hit)
  | Some _ | None ->
      let before = Option.fold ~none:0 ~some:Budget.steps_used budget in
      let m =
        Obs.span "closure" (fun () ->
            Phom_graph.Bounded_closure.relation ?budget ?hops pin.pin_graph)
      in
      Obs.span_steps "closure"
        (Option.fold ~none:0 ~some:Budget.steps_used budget - before);
      if cacheable budget then put_artifact t ~gen0 ~pins:[ pin ] key (A_closure m);
      (m, Miss)

let closure ?budget t ~name ~hops =
  match pin t name with
  | Error _ as e -> e
  | Ok p -> Ok (closure_pinned ?budget t ~pin:p ~hops)

let similarity_pinned ?matv t ~p1 ~p2 ~sim =
  let gen0 = generation t in
  match sim with
  | Named n -> (
      match matv with
      | None -> Error (Printf.sprintf "matrix %s was not pinned" n)
      | Some (m, _) ->
          if
            Simmat.n1 m <> D.n p1.pin_graph || Simmat.n2 m <> D.n p2.pin_graph
          then
            Error
              (Printf.sprintf "matrix %s is %dx%d but graphs %s/%s are %dx%d" n
                 (Simmat.n1 m) (Simmat.n2 m) p1.pin_name p2.pin_name
                 (D.n p1.pin_graph) (D.n p2.pin_graph))
          else Ok (m, Catalog))
  | Equality | Shingles -> (
      let key =
        K_matrix
          ( p1.pin_name,
            p2.pin_name,
            sim_to_string sim,
            p1.pin_lsig ^ "." ^ p2.pin_lsig )
      in
      match Lru.find t.cache key with
      | Some (A_matrix m) -> Ok (m, Hit)
      | Some _ | None ->
          let m =
            Obs.span "similarity" (fun () ->
                match sim with
                | Equality -> Simmat.of_label_equality p1.pin_graph p2.pin_graph
                | Shingles ->
                    Shingle.matrix (D.labels p1.pin_graph) (D.labels p2.pin_graph)
                | Named _ -> assert false)
          in
          put_artifact t ~gen0 ~pins:[ p1; p2 ] key (A_matrix m);
          Ok (m, Miss))

let similarity t ~g1 ~g2 ~sim =
  match (pin t g1, pin t g2, pin_sim t sim) with
  | Ok p1, Ok p2, Ok matv -> similarity_pinned ?matv t ~p1 ~p2 ~sim
  | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e

(* the pair signature: which loaded content a candidate table (or count)
   was derived from. A weak component is relevant when it contains a node
   that clears the similarity threshold against the other graph — paths
   never leave a weak component and threshold-failing nodes are
   unmatchable whatever the structure, so content changes confined to
   irrelevant components cannot change the artifact, and their signature
   is deliberately left out: edits there keep these keys warm. *)
let pair_sig ~p1 ~p2 ~sim ~matv ~mat ~xi =
  let simtag =
    match (sim, matv) with
    | Named _, Some (_, crc) -> "m:" ^ crc
    | _ -> "l:" ^ p1.pin_lsig ^ "." ^ p2.pin_lsig
  in
  let n1 = D.n p1.pin_graph and n2 = D.n p2.pin_graph in
  let rel1 = Array.make n1 false and rel2 = Array.make n2 false in
  for v = 0 to n1 - 1 do
    for u = 0 to n2 - 1 do
      if Simmat.get mat v u >= xi then begin
        rel1.(v) <- true;
        rel2.(u) <- true
      end
    done
  done;
  let side p rel =
    let seen = Hashtbl.create 8 in
    Array.iteri
      (fun v r ->
        if r && not (Hashtbl.mem seen p.pin_rep.(v)) then
          Hashtbl.add seen p.pin_rep.(v) p.pin_crc.(v))
      rel;
    let comps = Hashtbl.fold (fun r c acc -> (r, c) :: acc) seen [] in
    match List.sort compare comps with
    | [] -> "-"
    | cs ->
        String.concat ","
          (List.map (fun (r, c) -> Printf.sprintf "%d:%s" r c) cs)
  in
  Printf.sprintf "%s|%s|%s" simtag (side p1 rel1) (side p2 rel2)

let candidates_pinned ?budget ?matv t ~instance ~p1 ~p2 ~sim ~hops =
  let gen0 = generation t in
  let xi = instance.Phom.Instance.xi in
  let psig = pair_sig ~p1 ~p2 ~sim ~matv ~mat:instance.Phom.Instance.mat ~xi in
  let key =
    K_cands (p1.pin_name, p2.pin_name, sim_to_string sim, hops, xi, psig)
  in
  match Lru.find t.cache key with
  | Some (A_cands c) ->
      Phom.Instance.preset_candidates instance c;
      Hit
  | Some _ | None ->
      let c = Phom.Instance.candidates instance in
      if cacheable budget then
        put_artifact t ~gen0 ~pins:[ p1; p2 ] key (A_cands c);
      Miss

let candidates ?budget t ~instance ~g1 ~g2 ~sim ~hops =
  match (pin t g1, pin t g2, pin_sim t sim) with
  | Ok p1, Ok p2, Ok matv ->
      candidates_pinned ?budget ?matv t ~instance ~p1 ~p2 ~sim ~hops
  | _ ->
      (* a graph vanished mid-call: answer from the instance, cache nothing *)
      ignore (Phom.Instance.candidates instance);
      Miss

(* the artifact chain, written once: every solve and count job and every
   replayed cands/count key derives its instance here *)
let instance_pinned ?budget ?matv t ~p1 ~p2 ~sim ~hops ~xi =
  let tc2, closure_prov = closure_pinned ?budget t ~pin:p2 ~hops in
  match similarity_pinned ?matv t ~p1 ~p2 ~sim with
  | Error _ as e -> e
  | Ok (mat, mat_prov) -> (
      match
        Phom.Instance.make ~tc2 ~g1:p1.pin_graph ~g2:p2.pin_graph ~mat ~xi ()
      with
      | exception Invalid_argument m -> Error m
      | instance ->
          let cands_prov =
            candidates_pinned ?budget ?matv t ~instance ~p1 ~p2 ~sim ~hops
          in
          Ok
            ( instance,
              [
                ("closure", closure_prov);
                ("mat", mat_prov);
                ("cands", cands_prov);
              ] ))

(* the count verb's answer is itself a (tiny) cacheable artifact: the DP
   is deterministic, so a completed count for the same key is the answer.
   Only Complete runs are cached — a tripped count is a partial table, not
   an under-approximation — and a hit legitimately reports Complete *)
let count_pinned ?budget ?pool ?matv t ~instance ~p1 ~p2 ~sim ~hops =
  let gen0 = generation t in
  let xi = instance.Phom.Instance.xi in
  let psig = pair_sig ~p1 ~p2 ~sim ~matv ~mat:instance.Phom.Instance.mat ~xi in
  let key =
    K_count (p1.pin_name, p2.pin_name, sim_to_string sim, hops, xi, psig)
  in
  match Lru.find t.cache key with
  | Some (A_count { count; exact; width }) ->
      ({ Phom.Dp.count; exact; width; status = Budget.Complete }, Hit)
  | Some _ | None ->
      let r = Phom.Api.count ?budget ?pool instance in
      if r.Phom.Dp.status = Budget.Complete && cacheable budget then
        put_artifact t ~gen0 ~pins:[ p1; p2 ] key
          (A_count
             {
               count = r.Phom.Dp.count;
               exact = r.Phom.Dp.exact;
               width = r.Phom.Dp.width;
             });
      (r, Miss)

(* ---- single-edge edits ---- *)

type edit_result = {
  applied : bool;  (** [false]: the target signature already held (no-op) *)
  edges : int;  (** edge count after the call *)
  crc : string;  (** content signature ([gsig]) after the call *)
  closures : int;  (** closure artifacts maintained incrementally *)
}

let op_name = function `Add -> "add" | `Del -> "del"

(* move every cached closure of [name] from the old signature to the new
   one, updating the matrix incrementally instead of recomputing it.
   Runs under the catalog lock, so no unload can interleave; the cache
   insertions go straight to the Lru (the journal event for the edit
   subsumes them — replay re-applies the edit and re-maintains). *)
let maintain_closures t ~name ~before ~after ~op ~v ~w =
  let moved = ref 0 in
  List.iter
    (fun (k, art) ->
      match (k, art) with
      | K_closure (n, s, hops), A_closure m
        when n = name && s = before.gsig ->
          let m' =
            Obs.span "closure_incremental" (fun () ->
                Phom_graph.Incremental.update ~hops ~before:before.g
                  ~after:after.g ~op ~u:v ~v:w m)
          in
          ignore (Lru.remove_if t.cache (fun k' -> k' = k));
          Lru.put t.cache (K_closure (n, after.gsig, hops)) (A_closure m');
          incr moved
      | _ -> ())
    (Lru.bindings t.cache);
  !moved

let edit ?expect_crc t ~name ~op ~v ~w =
  let result =
    locked t (fun () ->
        match Hashtbl.find_opt t.entries name with
        | None -> Error (Printf.sprintf "unknown graph %s (load it first)" name)
        | Some (Mat _) ->
            Error (Printf.sprintf "%s is a similarity matrix, not a graph" name)
        | Some (Graph ge) ->
            let n = D.n ge.g in
            if v < 0 || v >= n || w < 0 || w >= n then
              Error
                (Printf.sprintf
                   "edge %d->%d out of range (graph %s has %d nodes)" v w name
                   n)
            else if expect_crc = Some ge.gsig then
              (* the state already carries the target signature: the edit
                 was applied before (a router replay, a retried line) —
                 succeed without changing anything *)
              Ok
                ( {
                    applied = false;
                    edges = D.nb_edges ge.g;
                    crc = ge.gsig;
                    closures = 0;
                  },
                  None )
            else if op = `Add && D.has_edge ge.g v w then
              Error
                (Printf.sprintf "edge %d->%d is already present in %s" v w name)
            else if op = `Del && not (D.has_edge ge.g v w) then
              Error (Printf.sprintf "no edge %d->%d in %s" v w name)
            else begin
              let g' =
                match op with
                | `Add -> D.add_edge ge.g v w
                | `Del -> D.remove_edge ge.g v w
              in
              let ge' = analyze g' in
              match expect_crc with
              | Some c when c <> ge'.gsig ->
                  (* the caller pinned a target state and this edit does
                     not produce it: refuse before committing anything *)
                  Error
                    (Printf.sprintf
                       "%s: edit yields signature %s, caller expected %s" name
                       ge'.gsig c)
              | _ ->
                  let closures =
                    maintain_closures t ~name ~before:ge ~after:ge' ~op ~v ~w
                  in
                  Hashtbl.replace t.entries name (Graph ge');
                  Ok
                    ( {
                        applied = true;
                        edges = D.nb_edges g';
                        crc = ge'.gsig;
                        closures;
                      },
                      Some
                        (Journal.Edit
                           { name; op = op_name op; v; w; crc = ge'.gsig }) )
            end)
  in
  match result with
  | Error _ as e -> e
  | Ok (r, ev) ->
      Option.iter (emit t) ev;
      Ok r

let graph_sig t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.entries name with
      | Some (Graph ge) -> Some ge.gsig
      | _ -> None)

(* ---- the warm-start solution store ---- *)

(* bounded: a runaway key space (many distinct solve shapes) must not
   grow without limit; the store is an optimization, so dropping it
   wholesale is always safe *)
let max_solutions = 1024

let remember_solution t ~key ~g1 ~g2 mapping =
  locked t (fun () ->
      if
        Hashtbl.length t.solutions >= max_solutions
        && not (Hashtbl.mem t.solutions key)
      then Hashtbl.reset t.solutions;
      Hashtbl.replace t.solutions key (g1, g2, mapping))

let recall_solution t ~key =
  locked t (fun () ->
      Option.map (fun (_, _, m) -> m) (Hashtbl.find_opt t.solutions key))

let cache_stats t = Lru.stats t.cache

let clear_cache t = Lru.clear t.cache

(* ---- durability: snapshot export / restore, journal replay ---- *)

let export t =
  let graphs, mats = list t in
  let rec_of_graph (name, g) =
    { Persist.kind = "graph"; name; payload = Phom_graph.Graph_io.to_string g }
  in
  let rec_of_mat (name, m) =
    { Persist.kind = "mat"; name; payload = Simmat.to_string m }
  in
  let rec_of_artifact (k, a) =
    {
      Persist.kind = "artifact";
      name = token_of_key k;
      payload = Marshal.to_string a [];
    }
  in
  (* graphs and matrices first (artifacts are validated against them on
     restore); artifacts in LRU order so re-insertion reproduces recency *)
  List.map rec_of_graph graphs
  @ List.map rec_of_mat mats
  @ List.map rec_of_artifact (Lru.bindings t.cache)

(* a decoded artifact must still agree with its key and with the restored
   graphs before it is trusted — a corrupt snapshot whose CRC happens to
   pass (or a stale key) is quarantined here, not served. Signatures are
   content-derived, so a consistent snapshot's closure keys match the
   restored graphs exactly; a closure whose signature contradicts the
   restored content is stale and rejected. *)
let artifact_plausible t key art =
  match (key, art) with
  | K_closure (g, s, _), A_closure m -> (
      match pin t g with
      | Ok p ->
          BM.rows m = D.n p.pin_graph
          && BM.cols m = D.n p.pin_graph
          && s = p.pin_sig
      | Error _ -> false)
  | K_matrix (g1, g2, _, _), A_matrix m -> (
      match (graph t g1, graph t g2) with
      | Ok a, Ok b -> Simmat.n1 m = D.n a && Simmat.n2 m = D.n b
      | _ -> false)
  | K_cands (g1, g2, _, _, _, _), A_cands rows -> (
      match (graph t g1, graph t g2) with
      | Ok a, Ok b ->
          Array.length rows = D.n a
          && Array.for_all
               (Array.for_all (fun u -> u >= 0 && u < D.n b))
               rows
      | _ -> false)
  | K_count (g1, g2, _, _, _, _), A_count { count; width; _ } -> (
      match (graph t g1, graph t g2) with
      | Ok a, Ok _ -> count >= 0 && width >= -1 && width < D.n a
      | _ -> false)
  | (K_closure _ | K_matrix _ | K_cands _ | K_count _), _ -> false

let restore_record t (r : Persist.record) =
  let insert_entry name e =
    if not (valid_name name) then
      Error (Printf.sprintf "%s: invalid catalog name" name)
    else
      locked t (fun () ->
          if Hashtbl.mem t.entries name then
            Error (Printf.sprintf "%s: already restored" name)
          else begin
            Hashtbl.replace t.entries name e;
            Ok ()
          end)
  in
  match r.Persist.kind with
  | "graph" -> (
      if String.length r.payload > t.max_graph_bytes then
        Error (r.name ^ ": snapshot graph exceeds the size cap")
      else
        match Phom_graph.Graph_io.of_string r.payload with
        | Ok g -> insert_entry r.name (Graph (analyze g))
        | Error e -> Error (r.name ^ ": " ^ e))
  | "mat" -> (
      if String.length r.payload > t.max_mat_bytes then
        Error (r.name ^ ": snapshot matrix exceeds the size cap")
      else
        match Simmat.of_string r.payload with
        | Ok m -> insert_entry r.name (Mat { m; crc = mat_crc m })
        | Error e -> Error (r.name ^ ": " ^ e))
  | "artifact" -> (
      match key_of_token r.name with
      | None -> Error (r.name ^ ": unknown artifact key")
      | Some key -> (
          (* the payload's CRC was verified by Persist before it got here,
             so unmarshalling is safe against torn bytes; the guard below
             rejects a payload that decodes but lies about its shape *)
          match (Marshal.from_string r.payload 0 : artifact) with
          | exception _ -> Error (r.name ^ ": undecodable artifact payload")
          | art ->
              if artifact_plausible t key art then begin
                Lru.put t.cache key art;
                Ok ()
              end
              else Error (r.name ^ ": artifact does not match its key")))
  | kind -> Error (Printf.sprintf "%s: unknown record kind %s" r.name kind)

(* recompute one artifact by key — the replay path for journaled artifact
   events, reusing the exact serving-path derivations. The journaled
   signature is informational: the recomputation keys itself against the
   replayed catalog's current signatures, which is where the state has
   converged by this point of the replay. *)
let warm t key =
  let ( let* ) r f = match r with Error e -> Error e | Ok v -> f v in
  let sim_of s =
    Option.to_result ~none:(s ^ ": unknown similarity kind") (sim_of_string s)
  in
  match key with
  | K_closure (name, _, hops) -> Result.map ignore (closure t ~name ~hops)
  | K_matrix (g1, g2, sim_s, _) ->
      let* sim = sim_of sim_s in
      Result.map ignore (similarity t ~g1 ~g2 ~sim)
  | K_cands (g1, g2, sim_s, hops, xi, _) | K_count (g1, g2, sim_s, hops, xi, _)
    ->
      let* sim = sim_of sim_s in
      let* p1 = pin t g1 in
      let* p2 = pin t g2 in
      let* matv = pin_sim t sim in
      let* instance, _ = instance_pinned ?matv t ~p1 ~p2 ~sim ~hops ~xi in
      (match key with
      | K_count _ -> ignore (count_pinned ?matv t ~instance ~p1 ~p2 ~sim ~hops)
      | K_closure _ | K_matrix _ | K_cands _ -> ());
      Ok ()

let apply_event t = function
  | Journal.Load_graph { name; path; crc } -> (
      match load_graph t ~name ~path with
      | Error e -> Error e
      | Ok g ->
          if graph_crc g = crc then Ok ()
          else begin
            (* the file drifted since the journaled load: a replay must
               not serve different bytes under the same name *)
            ignore (unload t name);
            Error
              (Printf.sprintf "%s: %s changed since it was journaled" name
                 path)
          end)
  | Journal.Load_mat { name; path; crc } -> (
      match load_mat t ~name ~path with
      | Error e -> Error e
      | Ok m ->
          if mat_crc m = crc then Ok ()
          else begin
            ignore (unload t name);
            Error
              (Printf.sprintf "%s: %s changed since it was journaled" name
                 path)
          end)
  | Journal.Unload name -> (
      match unload t name with Ok _ -> Ok () | Error e -> Error e)
  | Journal.Edit { name; op; v; w; crc } -> (
      let op' =
        match op with
        | "add" -> Ok `Add
        | "del" -> Ok `Del
        | s -> Error (Printf.sprintf "%s: unknown edit op %s" name s)
      in
      match op' with
      | Error _ as e -> e
      | Ok op -> (
          (* [expect_crc] both verifies convergence (the replayed edit must
             reproduce the journaled signature) and makes replay idempotent
             (a state already carrying it is a clean no-op) *)
          match edit ~expect_crc:crc t ~name ~op ~v ~w with
          | Ok _ -> Ok ()
          | Error e -> Error e))
  | Journal.Artifact token -> (
      match key_of_token token with
      | None -> Error (token ^ ": unknown artifact key")
      | Some key -> warm t key)
