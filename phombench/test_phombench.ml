(* The benchmark's own tests: the tail rule, the reply parser, the edit
   toggles and the oracle. They need no daemon and run in well under a
   second. *)

open Phombench
module W = Workload
module D = Phom_graph.Digraph

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let range n = List.init n (fun i -> float_of_int (i + 1))

let test_percentile () =
  check "p50 of 1..100 is 50" (Stats.percentile ~p:0.5 (range 100) = Ok 50.);
  check "p90 of 1..100 is 90 (ten beyond)" (Stats.percentile ~p:0.9 (range 100) = Ok 90.);
  check "p95 of 1..100 is refused (five beyond)" (Result.is_error (Stats.percentile ~p:0.95 (range 100)));
  check "p99 of 1..1000 is 990" (Stats.percentile ~p:0.99 (range 1000) = Ok 990.);
  check "p99 of 1..999 is refused (nine beyond)" (Result.is_error (Stats.percentile ~p:0.99 (range 999)));
  check "order does not matter" (Stats.percentile ~p:0.5 (List.rev (range 100)) = Ok 50.);
  check "no samples" (Result.is_error (Stats.percentile ~p:0.5 []));
  check "median of three" (Stats.median [ 3.; 1.; 2. ] = 2.)

let test_reply () =
  let r =
    Reply.parse
      "ok solve problem=CPH1-1 quality=0.5000 mapped=3/11 matched=false status=complete \
       cache=closure:hit,mat:catalog,cands:miss"
  in
  check "solve ok" (r.Reply.ok && r.Reply.verb = "solve");
  check "solve complete" (Reply.complete r);
  check "solve mapped" (Reply.mapped r = Some 3);
  check "solve quality" (Reply.field r "quality" = Some "0.5000");
  check "solve cache"
    (Reply.cache r = [ ("closure", "hit"); ("mat", "catalog"); ("cands", "miss") ]);
  let c =
    Reply.parse
      "ok count value=42 exact=false width=5 status=exhausted(deadline) \
       cache=closure:hit,mat:hit,cands:hit,count:miss"
  in
  check "count width" (Reply.width c = Some 5);
  check "count value" (Reply.int_field c "value" = Some 42);
  check "exhausted is not complete" (not (Reply.complete c));
  let e = Reply.parse "ok edited ed50 op=add v=3 w=9 edges=120 crc=abc applied=1 closures=1" in
  check "edit fields" (e.Reply.verb = "edited" && Reply.int_field e "edges" = Some 120);
  check "error reply" (not (Reply.parse "error busy retry-after=1").Reply.ok)

(* the toggles stay inside their pool and never add a present edge or
   delete an absent one, on the warm-up, lead-in and stream the benchmark
   really sends *)
let test_toggles () =
  let rng = Random.State.make [| 7 |] in
  let g = Phom_graph.Generators.erdos_renyi ~rng ~n:30 ~m:60 ~labels:(fun _ -> "L") in
  let pool = W.edit_pool ~rng g in
  check "pool size" (Array.length pool = W.pool_size);
  check "pool edges absent" (Array.for_all (fun (v, w) -> v <> w && not (D.has_edge g v w)) pool);
  let cur = ref g and ok = ref true in
  for j = 0 to (3 * 2 * W.pool_size) - 1 do
    let add, (v, w) = W.toggle pool j in
    if not (Array.mem (v, w) pool) then ok := false;
    if add = D.has_edge !cur v w then ok := false;
    cur := if add then D.add_edge !cur v w else D.remove_edge !cur v w;
    if not (D.equal !cur (W.graph_at g pool (j + 1))) then ok := false
  done;
  check "toggles stay in the pool and agree with graph_at" !ok;
  check "a full cycle restores the graph" (D.equal !cur g);
  let wl = W.make ~seed:3 "edit-stream" in
  let graphs = Hashtbl.create 8 in
  List.iter (fun (n, g) -> Hashtbl.replace graphs n g) wl.W.graphs;
  let ok = ref true in
  let apply (step : W.step) =
    match step.W.op with
    | W.Toggle { graph; add; v; w; edges_after } ->
        let g = Hashtbl.find graphs graph in
        if not (Array.mem (v, w) (List.assoc graph wl.W.pools)) then ok := false;
        if add = D.has_edge g v w then ok := false;
        let g = if add then D.add_edge g v w else D.remove_edge g v w in
        if D.nb_edges g <> edges_after then ok := false;
        Hashtbl.replace graphs graph g
    | W.Query _ -> ()
  in
  List.iter apply (wl.W.warmup @ wl.W.lead_in);
  for i = 0 to 400 do
    apply (W.nth wl i)
  done;
  check "edit-stream edits are always applicable" !ok

(* the oracle accepts the true answer and rejects doctored ones *)
let test_oracle () =
  let rng = Random.State.make [| 11 |] in
  let lbl _ = [| "A"; "B" |].(Random.State.int rng 2) in
  let g1 = Phom_graph.Generators.random_tree ~rng ~n:6 ~labels:lbl in
  let g2 = Phom_graph.Generators.random_dag ~rng ~n:12 ~m:20 ~labels:lbl in
  let save g =
    let path = Filename.temp_file "phombench" ".phg" in
    Phom_graph.Graph_io.save path g;
    path
  in
  let f1 = save g1 and f2 = save g2 in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ f1; f2 ])
    (fun () ->
      let q = W.query ~exact:true ~problem:Phom.Api.CPH ~sim:W.Equality ~xi:0.5 "p" "d" in
      let wl =
        {
          W.name = "test";
          cache_mb = 1;
          state_dir = false;
          graphs = [ ("p", g1); ("d", g2) ];
          mats = [];
          pools = [];
          warmup = [];
          lead_in = [];
          stream = (fun ~conn:_ _ -> W.query_step q);
          period = 1;
        }
      in
      let o = Oracle.create wl ~files:[ ("p", f1); ("d", f2) ] in
      let step = W.query_step q in
      let quality, mapped =
        match Oracle.reference o q with
        | Oracle.Solved { quality; mapped } -> (quality, mapped)
        | Oracle.Counted _ -> ("?", -1)
      in
      let reply ?(quality = quality) ?(mapped = mapped) ?(status = "complete") () =
        Printf.sprintf
          "ok solve problem=CPH quality=%s mapped=%d/6 matched=false status=%s \
           cache=closure:hit,mat:hit,cands:hit"
          quality mapped status
      in
      check "true answer accepted" (Oracle.check o step (reply ()) = Ok ());
      check "doctored quality rejected" (Result.is_error (Oracle.check o step (reply ~quality:"9.9999" ())));
      check "doctored mapped count rejected"
        (Result.is_error (Oracle.check o step (reply ~mapped:(mapped + 1) ())));
      check "exhausted answer rejected"
        (Result.is_error (Oracle.check o step (reply ~status:"exhausted(deadline)" ())));
      check "error reply rejected" (Result.is_error (Oracle.check o step "error internal"));
      let edit =
        { W.line = "addedge d 0 1"; op = W.Toggle { graph = "d"; add = true; v = 0; w = 1; edges_after = 21 } }
      in
      check "edit with the expected edge count accepted"
        (Oracle.check o edit "ok edited d op=add v=0 w=1 edges=21 crc=x applied=1 closures=0" = Ok ());
      check "edit with a wrong edge count rejected"
        (Result.is_error
           (Oracle.check o edit "ok edited d op=add v=0 w=1 edges=22 crc=x applied=1 closures=0")))

let () =
  test_percentile ();
  test_reply ();
  test_toggles ();
  test_oracle ();
  if !failures > 0 then begin
    Printf.printf "%d phombench check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "phombench: all checks passed"
