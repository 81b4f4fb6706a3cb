(* The catalog memoizes each pair signature (the relevant-component CRCs a
   candidate or count key embeds) under everything the signature reads:
   the similarity kind and its tag, ξ, and both graphs' content
   signatures. Each case below drives one daemon state through steps that
   vary one of those inputs and compares every reply with a daemon rebuilt
   cold from the same content. A memo key missing an input would hand one
   step the signature of an earlier one, and the count reply is where that
   shows: a stale count artifact answers for the wrong content.

   The data graph has two weak components. A (nodes 0 -> 1) carries the
   pattern's label; B (nodes 2 -> 3) a label whose shingle similarity to
   it is exactly 0.5 and whose label equality is 0. So B is relevant under
   shingles at ξ = 0.5 and irrelevant under equality or at ξ = 0.8, and
   deleting 2 -> 3 changes the count only where B is relevant. *)

module D = Phom_graph.Digraph
module Simmat = Phom_sim.Simmat
module Daemon = Phom_server.Daemon
module Catalog = Phom_server.Catalog
module Incr = Test_incr_oracle

let near = "a b c d e f"
let far = "a b c d e g"
let pattern = D.make ~labels:[| near; near |] ~edges:[ (0, 1) ]

let data ~b_edge =
  D.make
    ~labels:[| near; near; far; far |]
    ~edges:((0, 1) :: (if b_edge then [ (2, 3) ] else []))

(* a named matrix over pattern x data that scores B at [b] *)
let matrix b = Simmat.of_fun ~n1:2 ~n2:4 (fun _ u -> if u < 2 then 1. else b)

let save_mat m =
  let path = Filename.temp_file "phom_sig" ".phs" in
  Simmat.save path m;
  path

(* the warm daemon's current content, rebuilt cold *)
type content = { d : D.t; mat : Simmat.t option }

let load_content st c =
  let files =
    [ ("graph p", Incr.save_tmp pattern); ("graph d", Incr.save_tmp c.d) ]
    @ match c.mat with Some m -> [ ("mat m", save_mat m) ] | None -> []
  in
  List.iter
    (fun (what, path) ->
      ignore (Incr.expect_ok what (Incr.exec st (Printf.sprintf "load %s %s" what path)));
      Incr.rm path)
    files

let fresh c =
  let st = Daemon.make_state Daemon.default_config in
  load_content st c;
  st

(* run [lines] on the warm daemon, check each reply against a cold
   rebuild of [c], and return the warm replies *)
let step ~what warm c lines =
  let cold = fresh c in
  let replies =
    List.map
      (fun line ->
        let w = Incr.expect_ok line (Incr.exec warm line) in
        let k = Incr.expect_ok line (Incr.exec cold line) in
        if Incr.strip_cache w <> Incr.strip_cache k then
          Alcotest.failf "%s, %S: warm daemon answered %S, cold rebuild %S"
            what line w k;
        w)
      lines
  in
  Daemon.close_state cold;
  replies

let edit warm line = ignore (Incr.expect_ok line (Incr.exec warm line))
(* [sim] is a similarity option: [--sim KIND] or [--mat NAME] *)
let count sim xi = Printf.sprintf "count p d %s --xi %s" sim xi
let solve sim xi = Printf.sprintf "solve card p d %s --xi %s" sim xi
let equality = "--sim equality"
let shingles = "--sim shingles"
let with_b = { d = data ~b_edge:true; mat = None }
let without_b = { d = data ~b_edge:false; mat = None }

(* equality sees A only, shingles A and B: after an edit in B, a memo
   blind to the kind would reuse equality's signature for shingles *)
let test_similarity_kind () =
  let warm = fresh with_b in
  let both = [ count equality "0.5"; count shingles "0.5" ] in
  ignore (step ~what:"before the edit" warm with_b both);
  edit warm "deledge d 2 3";
  ignore (step ~what:"after deleting 2->3" warm without_b both);
  Daemon.close_state warm

(* ξ = 0.8 sees A only, ξ = 0.5 A and B *)
let test_xi () =
  let warm = fresh with_b in
  let both = [ count shingles "0.8"; count shingles "0.5" ] in
  ignore (step ~what:"before the edit" warm with_b both);
  edit warm "deledge d 2 3";
  ignore (step ~what:"after deleting 2->3" warm without_b both);
  Daemon.close_state warm

(* the same name, reloaded with content that makes B irrelevant, then the
   original content again *)
let test_named_matrix_reload () =
  let c1 = { with_b with mat = Some (matrix 0.9) } in
  let c2 = { with_b with mat = Some (matrix 0.3) } in
  let lines = [ count "--mat m" "0.5"; solve "--mat m" "0.5" ] in
  let warm = fresh c1 in
  ignore (step ~what:"first matrix" warm c1 lines);
  let reload c =
    ignore (Incr.expect_ok "unload" (Incr.exec warm "unload m"));
    let path = save_mat (Option.get c.mat) in
    ignore (Incr.expect_ok "load" (Incr.exec warm ("load mat m " ^ path)));
    Incr.rm path
  in
  reload c2;
  ignore (step ~what:"changed matrix" warm c2 lines);
  edit warm "deledge d 2 3";
  let c2' = { c2 with d = data ~b_edge:false } in
  ignore (step ~what:"changed matrix, edited" warm c2' lines);
  reload { c2' with mat = c1.mat };
  ignore (step ~what:"first matrix again, edited" warm { c1 with d = c2'.d } lines);
  Daemon.close_state warm

(* the reload above is answered right even by a memo blind to the matrix:
   the unload purged every artifact keyed under the old one. What shows
   is the key itself — the candidate key a snapshot records must name the
   content it was derived from, not the matrix loaded before *)
let test_named_matrix_key () =
  let ok = function Ok v -> v | Error e -> Alcotest.fail e in
  let c = Catalog.create () in
  let save_graph name g =
    let path = Incr.save_tmp g in
    ignore (ok (Catalog.load_graph c ~name ~path));
    Incr.rm path
  in
  save_graph "p" pattern;
  save_graph "d" (data ~b_edge:true);
  let solve_with b =
    let path = save_mat (matrix b) in
    ignore (ok (Catalog.load_mat c ~name:"m" ~path));
    Incr.rm path;
    let p1 = ok (Catalog.pin c "p") and p2 = ok (Catalog.pin c "d") in
    let matv = ok (Catalog.pin_sim c (Catalog.Named "m")) in
    ignore
      (ok
         (Catalog.instance_pinned ?matv c ~p1 ~p2 ~sim:(Catalog.Named "m")
            ~hops:None ~xi:0.5));
    snd (Option.get matv)
  in
  ignore (solve_with 0.9);
  ignore (ok (Catalog.unload c "m"));
  let crc = solve_with 0.3 in
  let cands =
    List.filter_map
      (fun (r : Phom_server.Persist.record) ->
        if r.kind = "artifact" && String.starts_with ~prefix:"cands/" r.name
        then Some r.name
        else None)
      (Catalog.export c)
  in
  match cands with
  | [ key ] ->
      Alcotest.(check bool)
        (Printf.sprintf "%s names the reloaded matrix %s" key crc)
        true
        (Incr.contains key ("m:" ^ crc))
  | keys -> Alcotest.failf "one candidate key expected, got %d" (List.length keys)

(* an edit in a relevant component re-keys the candidate table; its undo
   restores the content signature, and with it the memoized signature *)
let test_edit_then_undo () =
  let warm = fresh with_b in
  let line = solve shingles "0.5" in
  let cands reply = Incr.contains reply "cands:hit" in
  ignore (step ~what:"loaded" warm with_b [ line; count shingles "0.5" ]);
  edit warm "deledge d 2 3";
  (match step ~what:"edited" warm without_b [ line; count shingles "0.5" ] with
  | r :: _ ->
      Alcotest.(check bool) "an edit in B re-keys the table: cands:miss" false
        (cands r)
  | [] -> assert false);
  edit warm "addedge d 2 3";
  (match step ~what:"undone" warm with_b [ line; count shingles "0.5" ] with
  | r :: _ ->
      Alcotest.(check bool) "the undo finds the old table: cands:hit" true
        (cands r)
  | [] -> assert false);
  Daemon.close_state warm

(* more distinct ξ than the memo holds: it resets, and every signature it
   hands out afterwards is still right *)
let test_memo_reset () =
  let warm = fresh with_b in
  let xi i = Printf.sprintf "%.5f" (0.3 +. (float_of_int i *. 0.0004)) in
  for i = 0 to 1099 do
    ignore (Incr.expect_ok "count" (Incr.exec warm (count shingles (xi i))))
  done;
  (* ξ 0 went out with the reset, ξ 1099 is still memoized *)
  let probes = [ count shingles (xi 0); count shingles (xi 1099) ] in
  ignore (step ~what:"after 1100 distinct xi" warm with_b probes);
  edit warm "deledge d 2 3";
  ignore (step ~what:"after the reset and an edit" warm without_b probes);
  let again = Incr.expect_ok "solve" (Incr.exec warm (solve shingles "0.5")) in
  let again' = Incr.expect_ok "solve" (Incr.exec warm (solve shingles "0.5")) in
  Alcotest.(check string) "repeat answers agree" (Incr.strip_cache again)
    (Incr.strip_cache again');
  Alcotest.(check bool) "repeat hits its candidate table" true
    (Incr.contains again' "cands:hit");
  Daemon.close_state warm

let suite =
  [
    ( "pair_sig_memo",
      [
        Alcotest.test_case "keyed by the similarity kind" `Quick
          test_similarity_kind;
        Alcotest.test_case "keyed by xi" `Quick test_xi;
        Alcotest.test_case "named matrix reloaded with other content"
          `Quick test_named_matrix_reload;
        Alcotest.test_case "keyed by the named matrix's content" `Quick
          test_named_matrix_key;
        Alcotest.test_case "edit re-keys, undo hits again" `Quick
          test_edit_then_undo;
        Alcotest.test_case "reset past 1024 entries" `Quick test_memo_reset;
      ] );
  ]
