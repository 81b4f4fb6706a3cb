(* The traced replay: the workload's requests run in-process through the
   same public calls [Daemon.prepare_solve] makes, in the same order, each
   wrapped in a span. Spans live in memory (name, start, stop, parent,
   request id) and are written out when the run ends; a layer's self time
   is its span minus its children.

   Two deliberate differences from the daemon's job, both neutral for
   complete answers: the recalled warm-start mapping is repaired in its own
   [warm.repair] span and not handed to [Api.solve_within] again (a
   complete result is returned unchanged either way, so the work is the
   same and now has its own row), and the pool hand-off is recorded as a
   [pool.wait] span from submission to the job's first instruction. *)

module D = Phom_graph.Digraph
module Budget = Phom_graph.Budget
module Catalog = Phom_server.Catalog
module Protocol = Phom_server.Protocol
module Journal = Phom_server.Journal
module Api = Phom.Api
module Pool = Phom_parallel.Pool
module Obs = Phom_obs.Obs

let now = Unix.gettimeofday

type span = { name : string; start : float; stop : float; parent : int; req : int }

(* the log: spans are appended in start order, so an id is an index and a
   parent always precedes its children. The pool worker appends while the
   submitting domain waits in [Pool.await], so there is one writer at a
   time, ordered by the pool's own synchronisation. *)
let spans = ref (Array.make 0 { name = ""; start = 0.; stop = 0.; parent = -1; req = -1 })
let count = ref 0
let parent = ref (-1)
let req = ref (-1)
let recording = ref false

let push s =
  if !count = Array.length !spans then begin
    let a = Array.make (max 1024 (2 * !count)) s in
    Array.blit !spans 0 a 0 !count;
    spans := a
  end;
  !spans.(!count) <- s;
  incr count;
  !count - 1

let span name f =
  if not !recording then f ()
  else begin
    let id = push { name; start = now (); stop = nan; parent = !parent; req = !req } in
    let saved = !parent in
    parent := id;
    let finish () =
      parent := saved;
      !spans.(id) <- { (!spans.(id)) with stop = now () }
    in
    match f () with
    | x ->
        finish ();
        x
    | exception e ->
        finish ();
        raise e
  end

let all () = Array.sub !spans 0 !count

(* per-request facts the spans do not carry *)
type info = {
  kind : [ `Solve | `Count | `Edit ];
  provenance : (string * Catalog.provenance) list;
  route : [ `Direct | `Dp | `Dp_bb | `Bb | `None ];
  dp_seconds : float;  (** DP time inside the engine call *)
  bb_seconds : float;  (** assignment-tree B&B time inside the engine call *)
  steps : int;  (** budget steps the request used *)
  closures : int;  (** edits: closures carried across incrementally *)
}

type state = {
  cat : Catalog.t;
  pool : Pool.t;
  timeout : float;
  infos : (int, info) Hashtbl.t;
}

let create ~pool ~cache_mb ~timeout ~journal =
  let cat = Catalog.create ~cache_bytes:(cache_mb * 1024 * 1024) () in
  (match journal with
  | None -> ()
  | Some j ->
      Catalog.set_on_event cat
        (Some (fun e -> span "journal.append" (fun () -> Journal.append j e))));
  { cat; pool; timeout; infos = Hashtbl.create 256 }

let ok_exn = function Ok v -> v | Error e -> failwith e

(* the daemon's warm-start key: the request shape without signatures *)
let solve_key (s : Protocol.solve) =
  Printf.sprintf "%s/%s/%s/%s/%h/%s"
    (Protocol.problem_token s.Protocol.problem)
    s.Protocol.g1 s.Protocol.g2
    (Catalog.sim_to_string s.Protocol.sim)
    s.Protocol.xi
    (match s.Protocol.hops with None -> "full" | Some k -> string_of_int k)

let status_token = function
  | Budget.Complete -> "complete"
  | Budget.Exhausted r -> Printf.sprintf "exhausted(%s)" (Budget.string_of_reason r)

let final_status budget = function
  | Budget.Exhausted _ as s -> s
  | Budget.Complete -> if Budget.poll budget then Budget.Complete else Budget.status budget

(* run [job] on the pool like [Daemon.execute] does, recording the wait *)
let on_pool st job =
  let root = !parent in
  let submitted = now () in
  Pool.await
    (Pool.submit st.pool (fun () ->
         let started = now () in
         if !recording then
           ignore
             (push
                { name = "pool.wait"; start = submitted; stop = started; parent = root; req = !req });
         parent := root;
         job ()))

let pins st ~g1 ~g2 ~(sim : Catalog.sim) =
  span "catalog.pin" (fun () ->
      let p1 = ok_exn (Catalog.pin st.cat g1) in
      let p2 = ok_exn (Catalog.pin st.cat g2) in
      let matv =
        match sim with
        | Catalog.Named n -> Some (ok_exn (Catalog.pin_mat st.cat n))
        | Catalog.Equality | Catalog.Shingles -> None
      in
      (p1, p2, matv))

(* closure → similarity → instance → candidates, the shared artifact chain *)
let artifacts st ~budget ~p1 ~p2 ~matv ~sim ~hops ~xi =
  let g1 = p1.Catalog.pin_graph and g2 = p2.Catalog.pin_graph in
  let tc2, cprov =
    span "catalog.closure" (fun () -> Catalog.closure_pinned ~budget st.cat ~pin:p2 ~hops)
  in
  let mat, mprov =
    span "catalog.similarity" (fun () ->
        ok_exn (Catalog.similarity_pinned ?matv st.cat ~p1 ~p2 ~sim))
  in
  let t = span "instance.make" (fun () -> Phom.Instance.make ~tc2 ~g1 ~g2 ~mat ~xi ()) in
  let kprov =
    span "catalog.candidates" (fun () ->
        Catalog.candidates_pinned ~budget ?matv st.cat ~instance:t ~p1 ~p2 ~sim ~hops)
  in
  (t, [ ("closure", cprov); ("mat", mprov); ("cands", kprov) ])

let cache_field prov =
  String.concat ","
    (List.map (fun (k, p) -> k ^ ":" ^ Catalog.provenance_name p) prov)

let span_hist name = Obs.histogram ~labels:[ ("span", name) ] "phom_span_seconds"

let solve st (s : Protocol.solve) =
  let p1, p2, matv = pins st ~g1:s.Protocol.g1 ~g2:s.Protocol.g2 ~sim:s.Protocol.sim in
  let key = solve_key s in
  let recalled = span "catalog.pin" (fun () -> Catalog.recall_solution st.cat ~key) in
  let budget = Budget.create ~timeout:st.timeout () in
  let r = !req in
  on_pool st (fun () ->
      let t, prov =
        artifacts st ~budget ~p1 ~p2 ~matv ~sim:s.Protocol.sim ~hops:s.Protocol.hops ~xi:s.Protocol.xi
      in
      ignore
        (span "warm.repair" (fun () ->
             Option.map (Phom.Warm.repair ~injective:(Api.injective s.Protocol.problem) t) recalled));
      let dp = span_hist "dp" and bb = span_hist "exact" in
      let dp0 = Obs.histogram_sum dp and dpn = Obs.histogram_count dp in
      let bb0 = Obs.histogram_sum bb and bbn = Obs.histogram_count bb in
      let res =
        span "engine.solve" (fun () ->
            Api.solve_within ~algorithm:s.Protocol.algorithm ~partition:s.Protocol.partition
              ~compress:s.Protocol.compress ~budget ~pool:st.pool s.Protocol.problem t)
      in
      let dp_ran = Obs.histogram_count dp > dpn and bb_ran = Obs.histogram_count bb > bbn in
      span "catalog.remember" (fun () ->
          Catalog.remember_solution st.cat ~key ~g1:s.Protocol.g1 ~g2:s.Protocol.g2 res.Api.mapping);
      Hashtbl.replace st.infos r
        {
          kind = `Solve;
          provenance = prov;
          route =
            (match (dp_ran, bb_ran) with
            | true, true -> `Dp_bb
            | true, false -> `Dp
            | false, true -> `Bb
            | false, false -> `Direct);
          dp_seconds = Obs.histogram_sum dp -. dp0;
          bb_seconds = Obs.histogram_sum bb -. bb0;
          steps = Budget.steps_used budget;
          closures = 0;
        };
      Printf.sprintf
        "ok solve problem=%s quality=%.4f mapped=%d/%d matched=%b status=%s cache=%s"
        (Api.problem_name res.Api.problem) res.Api.quality
        (Phom.Mapping.size res.Api.mapping)
        (D.n p1.Catalog.pin_graph) (Api.matches res)
        (status_token (final_status budget res.Api.status))
        (cache_field prov))

let count st (c : Protocol.count) =
  let p1, p2, matv = pins st ~g1:c.Protocol.g1 ~g2:c.Protocol.g2 ~sim:c.Protocol.sim in
  let budget = Budget.create ~timeout:st.timeout () in
  let r = !req in
  on_pool st (fun () ->
      let t, prov =
        artifacts st ~budget ~p1 ~p2 ~matv ~sim:c.Protocol.sim ~hops:c.Protocol.hops ~xi:c.Protocol.xi
      in
      let res, nprov =
        span "engine.count" (fun () ->
            Catalog.count_pinned ~budget ~pool:st.pool ?matv st.cat ~instance:t ~p1 ~p2
              ~sim:c.Protocol.sim ~hops:c.Protocol.hops)
      in
      let prov = prov @ [ ("count", nprov) ] in
      Hashtbl.replace st.infos r
        {
          kind = `Count;
          provenance = prov;
          route = `None;
          dp_seconds = 0.;
          bb_seconds = 0.;
          steps = Budget.steps_used budget;
          closures = 0;
        };
      Printf.sprintf "ok count value=%d exact=%b width=%d status=%s cache=%s" res.Phom.Dp.count
        res.Phom.Dp.exact res.Phom.Dp.width
        (status_token (final_status budget res.Phom.Dp.status))
        (cache_field prov))

let edit st (e : Protocol.edit) =
  let res =
    span "catalog.edit" (fun () ->
        ok_exn
          (Catalog.edit st.cat ~name:e.Protocol.name ~op:e.Protocol.op ~v:e.Protocol.v
             ~w:e.Protocol.w))
  in
  Hashtbl.replace st.infos !req
    {
      kind = `Edit;
      provenance = [];
      route = `None;
      dp_seconds = 0.;
      bb_seconds = 0.;
      steps = 0;
      closures = res.Catalog.closures;
    };
  Printf.sprintf "ok edited %s op=%s v=%d w=%d edges=%d crc=%s applied=%d closures=%d" e.Protocol.name
    (match e.Protocol.op with `Add -> "add" | `Del -> "del")
    e.Protocol.v e.Protocol.w res.Catalog.edges res.Catalog.crc
    (if res.Catalog.applied then 1 else 0)
    res.Catalog.closures

(* one request line, traced when [recording]; returns the reply line *)
let run st ~id line =
  req := id;
  span "request" (fun () ->
      match span "protocol.parse" (fun () -> Protocol.parse line) with
      | Error e -> "error " ^ e
      | Ok (Protocol.Solve s) -> solve st s
      | Ok (Protocol.Count c) -> count st c
      | Ok (Protocol.Edit e) -> edit st e
      | Ok (Protocol.Load_graph { name; path }) ->
          ignore (ok_exn (Catalog.load_graph st.cat ~name ~path));
          "ok loaded"
      | Ok (Protocol.Load_mat { name; path }) ->
          ignore (ok_exn (Catalog.load_mat st.cat ~name ~path));
          "ok loaded"
      | Ok _ -> failwith ("the traced replay does not serve: " ^ line))

(* ---- self times ---- *)

(* per request: (layer name → self seconds), root duration *)
let self_times (a : span array) =
  let self = Array.map (fun s -> s.stop -. s.start) a in
  Array.iter
    (fun s -> if s.parent >= 0 then self.(s.parent) <- self.(s.parent) -. (s.stop -. s.start))
    a;
  self

let write_tsv path (a : span array) =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "id\treq\tparent\tname\tstart\tstop\tself_us\n";
      let self = self_times a in
      Array.iteri
        (fun i s ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%.6f\t%.6f\t%.1f\n" i s.req s.parent s.name s.start s.stop
            (self.(i) *. 1e6))
        a)
