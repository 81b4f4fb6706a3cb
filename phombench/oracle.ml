(* The answer oracle: every reply the daemon gave is checked against a
   reference computed in-process from the same generated files. The
   reference takes an independent route — no catalog, no cache, no pool,
   a closure from [Instance.make] instead of the catalog's artifact — so a
   [Complete] answer that differs on the served route is caught (the
   ROADMAP invariant: a complete answer is the same on every route).

   Edit-stream replies are checked against the graph at the request's
   toggle phase, which the workload records on every query. *)

module D = Phom_graph.Digraph
module Budget = Phom_graph.Budget
module Simmat = Phom_sim.Simmat
module Api = Phom.Api
module W = Workload

type answer = Solved of { quality : string; mapped : int } | Counted of { value : int; width : int }

type t = {
  graphs : (string, D.t) Hashtbl.t;
  mats : (string, Simmat.t) Hashtbl.t;
  pools : (string * (int * int) array) list;
  closures : (string * int, Phom_graph.Bitmatrix.t) Hashtbl.t;
  answers : (W.query, answer) Hashtbl.t;
}

(* [files] maps each catalog name to the file the daemon loaded it from *)
let create (wl : W.t) ~files =
  let load name =
    match List.assoc_opt name files with
    | None -> failwith ("oracle: no file for " ^ name)
    | Some path -> path
  in
  let graphs = Hashtbl.create 16 and mats = Hashtbl.create 4 in
  List.iter
    (fun (name, _) ->
      match Phom_graph.Graph_io.load (load name) with
      | Ok g -> Hashtbl.replace graphs name g
      | Error e -> failwith ("oracle: " ^ e))
    wl.W.graphs;
  List.iter
    (fun (name, _) ->
      match Simmat.load (load name) with
      | Ok m -> Hashtbl.replace mats name m
      | Error e -> failwith ("oracle: " ^ e))
    wl.W.mats;
  { graphs; mats; pools = wl.W.pools; closures = Hashtbl.create 16; answers = Hashtbl.create 64 }

let graph o name = Hashtbl.find o.graphs name

let data_graph o name phase =
  match List.assoc_opt name o.pools with
  | None -> graph o name
  | Some pool -> W.graph_at (graph o name) pool phase

let instance o (q : W.query) =
  let g1 = graph o q.W.g1 and g2 = data_graph o q.W.g2 q.W.phase in
  let mat =
    match q.W.sim with
    | W.Shingles -> Phom_sim.Shingle.matrix (D.labels g1) (D.labels g2)
    | W.Equality -> Simmat.of_label_equality g1 g2
    | W.Mat m -> Hashtbl.find o.mats m
  in
  let key = (q.W.g2, q.W.phase) in
  let t =
    match Hashtbl.find_opt o.closures key with
    | Some tc2 -> Phom.Instance.make ~tc2 ~g1 ~g2 ~mat ~xi:q.W.xi ()
    | None ->
        let t = Phom.Instance.make ~g1 ~g2 ~mat ~xi:q.W.xi () in
        Hashtbl.replace o.closures key t.Phom.Instance.tc2;
        t
  in
  t

let compute o (q : W.query) =
  let t = instance o q in
  (* generous, so the reference itself never settles for an anytime answer *)
  let budget = Budget.create ~timeout:120. () in
  match q.W.problem with
  | Some p ->
      let algorithm = if q.W.exact then Api.Exact_bb else Api.Direct in
      let r = Api.solve_within ~algorithm ~budget p t in
      if r.Api.status <> Budget.Complete then failwith ("oracle: reference incomplete for " ^ W.line_of_query q);
      Solved { quality = Printf.sprintf "%.4f" r.Api.quality; mapped = Phom.Mapping.size r.Api.mapping }
  | None ->
      let c = Api.count ~budget t in
      if c.Phom.Dp.status <> Budget.Complete then failwith ("oracle: reference incomplete for " ^ W.line_of_query q);
      Counted { value = c.Phom.Dp.count; width = c.Phom.Dp.width }

let reference o q =
  match Hashtbl.find_opt o.answers q with
  | Some a -> a
  | None ->
      let a = compute o q in
      Hashtbl.replace o.answers q a;
      a

(* [Ok ()] when [reply] is the right answer to [step]; otherwise why not *)
let check o (step : W.step) reply =
  let r = Reply.parse reply in
  let fail fmt = Printf.ksprintf (fun s -> Error (s ^ ": " ^ reply)) fmt in
  if not r.Reply.ok then fail "not ok"
  else
    match step.W.op with
    | W.Toggle { edges_after; _ } ->
        if r.Reply.verb <> "edited" then fail "not an edit reply"
        else if Reply.int_field r "edges" <> Some edges_after then fail "expected edges=%d" edges_after
        else if Reply.int_field r "applied" <> Some 1 then fail "edit not applied"
        else Ok ()
    | W.Query q -> (
        if not (Reply.complete r) then fail "status is not complete"
        else
          match reference o q with
          | Solved { quality; mapped } ->
              if Reply.field r "quality" <> Some quality then fail "expected quality=%s" quality
              else if Reply.mapped r <> Some mapped then fail "expected mapped=%d" mapped
              else Ok ()
          | Counted { value; width } ->
              if Reply.int_field r "value" <> Some value then fail "expected value=%d" value
              else if Reply.width r <> Some width then fail "expected width=%d" width
              else Ok ())
