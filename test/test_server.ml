(* The matching service: catalog semantics, artifact-cache behaviour
   (hit/miss provenance, unload invalidation, the budget poisoning rule),
   protocol parsing, request execution, and a live socket round trip. *)

module D = Phom_graph.Digraph
module IO = Phom_graph.Graph_io
module Budget = Phom_graph.Budget
module Simmat = Phom_sim.Simmat
module Catalog = Phom_server.Catalog
module Protocol = Phom_server.Protocol
module Daemon = Phom_server.Daemon
module Client = Phom_server.Client

let fig1_pattern = Filename.concat "../data" "fig1_pattern.phg"
let fig1_store = Filename.concat "../data" "fig1_store.phg"
let fig1_mate = Filename.concat "../data" "fig1_mate.phs"

let prov = Alcotest.of_pp (fun ppf p -> Fmt.string ppf (Catalog.provenance_name p))

let ok_or_fail = function
  | Ok v -> v
  | Error m -> Alcotest.failf "unexpected error: %s" m

let loaded_catalog () =
  let c = Catalog.create () in
  ignore (ok_or_fail (Catalog.load_graph c ~name:"pat" ~path:fig1_pattern));
  ignore (ok_or_fail (Catalog.load_graph c ~name:"store" ~path:fig1_store));
  c

(* ---- catalog ---- *)

let test_valid_name () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Catalog.valid_name n))
    [ "a"; "G2"; "web-site.v2"; "x_y"; String.make 64 'a' ];
  List.iter
    (fun n -> Alcotest.(check bool) ("bad: " ^ n) false (Catalog.valid_name n))
    [ ""; "a b"; "a/b"; "caf\xc3\xa9"; String.make 65 'a' ]

let test_load_list_unload () =
  let c = loaded_catalog () in
  let graphs, mats = Catalog.list c in
  Alcotest.(check (list string)) "graphs sorted" [ "pat"; "store" ]
    (List.map fst graphs);
  Alcotest.(check int) "no matrices" 0 (List.length mats);
  Alcotest.(check int) "unload drops nothing cached yet" 0
    (ok_or_fail (Catalog.unload c "pat"));
  let graphs, _ = Catalog.list c in
  Alcotest.(check (list string)) "pat gone" [ "store" ] (List.map fst graphs);
  (match Catalog.unload c "pat" with
  | Error m ->
      Alcotest.(check string) "unload unknown" "name pat is not loaded" m
  | Ok _ -> Alcotest.fail "unloading twice must fail")

let test_duplicate_name_refused () =
  let c = loaded_catalog () in
  (match Catalog.load_graph c ~name:"pat" ~path:fig1_store with
  | Error m ->
      Alcotest.(check string) "refused"
        "name pat is already loaded (unload it first)" m
  | Ok _ -> Alcotest.fail "loading over a live name must fail");
  (* the namespace is shared across kinds *)
  match Catalog.load_mat c ~name:"store" ~path:fig1_mate with
  | Error m ->
      Alcotest.(check string) "shared namespace"
        "name store is already loaded (unload it first)" m
  | Ok _ -> Alcotest.fail "matrix over a graph name must fail"

let test_wrong_kind_errors () =
  let c = loaded_catalog () in
  ignore (ok_or_fail (Catalog.load_mat c ~name:"m" ~path:fig1_mate));
  (match Catalog.pin c "m" with
  | Error m ->
      Alcotest.(check string) "mat as graph"
        "m is a similarity matrix, not a graph" m
  | Ok _ -> Alcotest.fail "a matrix must not look up as a graph");
  match Catalog.pin_mat c "pat" with
  | Error m ->
      Alcotest.(check string) "graph as mat"
        "pat is a graph, not a similarity matrix" m
  | Ok _ -> Alcotest.fail "a graph must not look up as a matrix"

(* ---- artifact cache through the catalog ---- *)

let test_closure_hit_miss_invalidation () =
  let c = loaded_catalog () in
  let _, p1 = ok_or_fail (Catalog.closure c ~name:"store" ~hops:None) in
  let m2, p2 = ok_or_fail (Catalog.closure c ~name:"store" ~hops:None) in
  Alcotest.check prov "cold is a miss" Catalog.Miss p1;
  Alcotest.check prov "warm is a hit" Catalog.Hit p2;
  (* a different hop bound is a different artifact *)
  let _, p3 = ok_or_fail (Catalog.closure c ~name:"store" ~hops:(Some 2)) in
  Alcotest.check prov "other hops is a miss" Catalog.Miss p3;
  (* hit returns the resident matrix, not a recomputation *)
  let m2', _ = ok_or_fail (Catalog.closure c ~name:"store" ~hops:None) in
  Alcotest.(check bool) "physically shared" true (m2 == m2');
  (* the probe reads [c]: its two closures are the registry's entries *)
  Alcotest.(check int) "probe reads this catalog" 2
    (Helpers.probe "phom_cache_entries");
  let dropped = ok_or_fail (Catalog.unload c "store") in
  Alcotest.(check int) "both artifacts invalidated" 2 dropped;
  Alcotest.(check int) "cache empty" 0 (Helpers.probe "phom_cache_entries");
  Alcotest.(check int) "invalidation is not eviction" 0
    (Helpers.probe "phom_cache_evictions_total")

let test_tripped_budget_not_cached () =
  let c = loaded_catalog () in
  let b = Budget.create ~steps:1 () in
  let _, p1 = ok_or_fail (Catalog.closure ~budget:b c ~name:"store" ~hops:None) in
  Alcotest.check prov "first computes" Catalog.Miss p1;
  Alcotest.(check bool) "budget tripped" true (Budget.exhausted b);
  (* the truncated closure must not have been cached *)
  let _, p2 = ok_or_fail (Catalog.closure c ~name:"store" ~hops:None) in
  Alcotest.check prov "full recompute, not a poisoned hit" Catalog.Miss p2;
  let _, p3 = ok_or_fail (Catalog.closure c ~name:"store" ~hops:None) in
  Alcotest.check prov "now cached" Catalog.Hit p3

let test_similarity_cache_and_named () =
  let c = loaded_catalog () in
  let _, p1 = ok_or_fail (Catalog.similarity c ~g1:"pat" ~g2:"store" ~sim:Catalog.Shingles) in
  let _, p2 = ok_or_fail (Catalog.similarity c ~g1:"pat" ~g2:"store" ~sim:Catalog.Shingles) in
  Alcotest.check prov "computed once" Catalog.Miss p1;
  Alcotest.check prov "then cached" Catalog.Hit p2;
  ignore (ok_or_fail (Catalog.load_mat c ~name:"mate" ~path:fig1_mate));
  let _, p3 =
    ok_or_fail (Catalog.similarity c ~g1:"pat" ~g2:"store" ~sim:(Catalog.Named "mate"))
  in
  Alcotest.check prov "named matrices come from the catalog" Catalog.Catalog p3;
  (* dimension guard: mate is pat x store, so the swapped pair must fail *)
  match Catalog.similarity c ~g1:"store" ~g2:"pat" ~sim:(Catalog.Named "mate") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dimension mismatch must be refused"

let make_instance c ~xi =
  let g1 = (ok_or_fail (Catalog.pin c "pat")).Catalog.pin_graph in
  let g2 = (ok_or_fail (Catalog.pin c "store")).Catalog.pin_graph in
  let tc2, _ = ok_or_fail (Catalog.closure c ~name:"store" ~hops:None) in
  let mat, _ = ok_or_fail (Catalog.similarity c ~g1:"pat" ~g2:"store" ~sim:Catalog.Shingles) in
  Phom.Instance.make ~tc2 ~g1 ~g2 ~mat ~xi ()

let candidates c ~instance =
  let p1 = ok_or_fail (Catalog.pin c "pat") in
  let p2 = ok_or_fail (Catalog.pin c "store") in
  Catalog.candidates_pinned c ~instance ~p1 ~p2 ~sim:Catalog.Shingles
    ~hops:None

let test_candidates_cache () =
  let c = loaded_catalog () in
  let t1 = make_instance c ~xi:0.5 in
  let p1 = candidates c ~instance:t1 in
  Alcotest.check prov "cold derives" Catalog.Miss p1;
  let t2 = make_instance c ~xi:0.5 in
  let p2 = candidates c ~instance:t2 in
  Alcotest.check prov "fresh instance, same key: primed from cache" Catalog.Hit p2;
  Alcotest.(check bool) "tables shared"
    true
    (Phom.Instance.candidates t1 == Phom.Instance.candidates t2);
  (* ξ is part of the key *)
  let t3 = make_instance c ~xi:0.9 in
  let p3 = candidates c ~instance:t3 in
  Alcotest.check prov "other xi is a miss" Catalog.Miss p3

(* ---- protocol ---- *)

let test_protocol_parse_ok () =
  (match Protocol.parse "  version " with
  | Ok Protocol.Version -> ()
  | _ -> Alcotest.fail "version");
  (match Protocol.parse "load graph g2 /tmp/g2.phg" with
  | Ok (Protocol.Load_graph { name = "g2"; path = "/tmp/g2.phg" }) -> ()
  | _ -> Alcotest.fail "load graph");
  let solve line =
    match Protocol.parse line with
    | Ok (Protocol.Solve s) -> s
    | Ok _ -> Alcotest.fail "parsed as a non-solve"
    | Error m -> Alcotest.failf "parse failed: %s" m
  in
  (* --hops and --compress cannot share a request: one line each *)
  let s =
    solve
      "solve card11 pat store --sim shingles --xi 0.5 --hops 3 --timeout 1.5 \
       --steps 100 --algorithm exact --partition --jobs 1"
  in
  Alcotest.(check string) "problem" "card11" (Protocol.problem_token s.Protocol.problem);
  Alcotest.(check string) "g1" "pat" s.Protocol.g1;
  Alcotest.(check string) "g2" "store" s.Protocol.g2;
  Alcotest.(check string) "sim" "shingles" (Catalog.sim_to_string s.Protocol.sim);
  Alcotest.(check (float 1e-9)) "xi" 0.5 s.Protocol.xi;
  Alcotest.(check (option int)) "hops" (Some 3) s.Protocol.hops;
  Alcotest.(check (option (float 1e-9))) "timeout" (Some 1.5) s.Protocol.timeout;
  Alcotest.(check (option int)) "steps" (Some 100) s.Protocol.steps;
  Alcotest.(check bool) "partition" true s.Protocol.partition;
  let s = solve "solve card11 pat store --compress" in
  Alcotest.(check bool) "compress" true s.Protocol.compress

let test_protocol_parse_errors () =
  let expect_error line =
    match Protocol.parse line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%S must not parse" line
  in
  List.iter expect_error
    [
      "";
      "bogus";
      "load graph onlyname";
      "unload";
      "solve card onlyone";
      "solve nope a b";
      "solve card a b --xi 1.5";
      "solve card a b --xi";
      "solve card a b --hops 0";
      "solve card a b --timeout -1";
      "solve card a b --steps -5";
      "solve card a b --jobs 0";
      "solve card a b --algorithm quantum";
      "solve card a b --sim cosine";
      "solve card a b --sim equality --mat m";
      "solve card a b --hops 1 --compress";
      "solve card a b --compress --hops 2";
      "solve card a b --frobnicate";
    ]

(* ---- request execution (socket-free) ---- *)

let exec st line =
  match Protocol.parse line with
  | Error m -> Alcotest.failf "parse %S: %s" line m
  | Ok req -> Daemon.execute st req

let check_prefix name prefix (reply, _) =
  if
    not
      (String.length reply >= String.length prefix
      && String.sub reply 0 (String.length prefix) = prefix)
  then Alcotest.failf "%s: expected %S..., got %S" name prefix reply

let test_execute_lifecycle () =
  let st = Daemon.make_state Daemon.default_config in
  check_prefix "version" ("ok phomd " ^ Phom_server.Version.string) (exec st "version");
  check_prefix "empty list" "ok graphs=[] mats=[]" (exec st "list");
  check_prefix "load pat" "ok loaded graph pat nodes=6 edges=6"
    (exec st ("load graph pat " ^ fig1_pattern));
  check_prefix "load store" "ok loaded graph store nodes=14 edges=14"
    (exec st ("load graph store " ^ fig1_store));
  let r1, _ = exec st "solve card pat store --sim shingles --xi 0.5" in
  check_prefix "cold solve" "ok solve problem=CPH" (r1, `Continue);
  Alcotest.(check bool) "cold provenance" true
    (Helpers.count_substring ~needle:"cache=closure:miss,mat:miss,cands:miss" r1 = 1);
  let r2, _ = exec st "solve card pat store --sim shingles --xi 0.5" in
  Alcotest.(check bool) "warm provenance" true
    (Helpers.count_substring ~needle:"cache=closure:hit,mat:hit,cands:hit" r2 = 1);
  (* identical answers, cold and warm (only provenance may differ) *)
  let before_cache r =
    match Helpers.count_substring ~needle:" cache=" r with
    | 1 ->
        let rec find i = if String.sub r i 7 = " cache=" then i else find (i + 1) in
        String.sub r 0 (find 0)
    | _ -> r
  in
  Alcotest.(check string) "same reply cold vs warm" (before_cache r1) (before_cache r2);
  check_prefix "unload" "ok unloaded store artifacts=" (exec st "unload store");
  check_prefix "solve after unload" "error unknown graph store"
    (exec st "solve card pat store");
  let stats, _ = exec st "stats" in
  (match String.split_on_char '\n' stats with
  | header :: body ->
      check_prefix "stats header" "ok stats " (header, `Continue);
      Alcotest.(check bool)
        "stats line count matches header" true
        (header = Printf.sprintf "ok stats %d" (List.length body));
      Alcotest.(check bool)
        "stats carries the daemon family" true
        (List.exists
           (fun l -> Helpers.contains_substring ~needle:"phom_daemon_requests_total" l)
           body)
  | [] -> Alcotest.fail "empty stats reply");
  let _, next = exec st "quit" in
  Alcotest.(check bool) "quit closes" true (next = `Quit);
  let _, next = exec st "shutdown" in
  Alcotest.(check bool) "shutdown stops" true (next = `Shutdown);
  Alcotest.(check bool) "requests counted" true (Daemon.requests_served st >= 10)

let test_execute_budget_trip () =
  let st = Daemon.make_state Daemon.default_config in
  ignore (exec st ("load graph pat " ^ fig1_pattern));
  ignore (exec st ("load graph store " ^ fig1_store));
  let r, _ = exec st "solve card pat store --sim shingles --xi 0.5 --steps 2" in
  Alcotest.(check bool) "anytime reply" true
    (Helpers.count_substring ~needle:"status=exhausted(steps)" r = 1);
  (* the truncated artifacts were not cached: a full solve recomputes *)
  let r2, _ = exec st "solve card pat store --sim shingles --xi 0.5" in
  Alcotest.(check bool) "no poisoned closure/cands" true
    (Helpers.count_substring ~needle:"closure:miss" r2 = 1
    && Helpers.count_substring ~needle:"cands:miss" r2 = 1)

let test_ping_health () =
  let st = Daemon.make_state Daemon.default_config in
  check_prefix "ping" "ok pong" (exec st "ping");
  let health, _ = exec st "health" in
  check_prefix "ready" "ok health state=ready" (health, `Continue);
  (* an ephemeral daemon reports that it carries no durable state *)
  Alcotest.(check bool) "no persistence" true
    (Helpers.count_substring ~needle:"persist=false" health = 1);
  Alcotest.(check bool) "zero recovery counters" true
    (Helpers.count_substring ~needle:"quarantined=0" health = 1);
  (* addedge/deledge are protocol 5: the banner must advertise it *)
  let version, _ = exec st "version" in
  Alcotest.(check bool) "protocol 5 advertised" true
    (Helpers.count_substring ~needle:"protocol 5" version = 1)

(* ---- live socket round trip ---- *)

let test_socket_roundtrip () =
  let dir = Filename.temp_file "phomd_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "d.sock" in
  let ready_lock = Mutex.create () and ready_cond = Condition.create () in
  let is_ready = ref false in
  let config =
    { Daemon.default_config with Daemon.socket_path = Some sock }
  in
  let server =
    Domain.spawn (fun () ->
        Daemon.serve
          ~ready:(fun _ ->
            Mutex.lock ready_lock;
            is_ready := true;
            Condition.signal ready_cond;
            Mutex.unlock ready_lock)
          config)
  in
  Mutex.lock ready_lock;
  while not !is_ready do
    Condition.wait ready_cond ready_lock
  done;
  Mutex.unlock ready_lock;
  let addr = ok_or_fail (Client.sockaddr_of_string sock) in
  let ask line = ok_or_fail (Client.request addr line) in
  let check_reply name prefix line =
    let reply = ask line in
    if
      not
        (String.length reply >= String.length prefix
        && String.sub reply 0 (String.length prefix) = prefix)
    then Alcotest.failf "%s: expected %S..., got %S" name prefix reply
  in
  check_reply "version over the wire" "ok phomd" "version";
  check_reply "load" "ok loaded graph pat" ("load graph pat " ^ fig1_pattern);
  check_reply "load" "ok loaded graph store" ("load graph store " ^ fig1_store);
  check_reply "solve" "ok solve problem=CPH" "solve card pat store --sim shingles";
  check_reply "bad request" "error unknown command" "abracadabra";
  (* several requests on one connection *)
  let conn = ok_or_fail (Client.connect addr) in
  check_prefix "pipelined 1" "ok stats" (ok_or_fail (Client.send conn "stats"), `Continue);
  check_prefix "pipelined 2" "ok graphs=[pat" (ok_or_fail (Client.send conn "list"), `Continue);
  Client.close conn;
  check_reply "shutdown" "ok shutting down" "shutdown";
  Domain.join server;
  Alcotest.(check bool) "socket unlinked on shutdown" false (Sys.file_exists sock);
  Unix.rmdir dir

let suite =
  [
    ( "server",
      [
        Alcotest.test_case "valid_name" `Quick test_valid_name;
        Alcotest.test_case "load/list/unload" `Quick test_load_list_unload;
        Alcotest.test_case "duplicate name refused" `Quick test_duplicate_name_refused;
        Alcotest.test_case "wrong-kind errors" `Quick test_wrong_kind_errors;
        Alcotest.test_case "closure hit/miss/invalidation" `Quick
          test_closure_hit_miss_invalidation;
        Alcotest.test_case "tripped budget not cached" `Quick
          test_tripped_budget_not_cached;
        Alcotest.test_case "similarity cache and named" `Quick
          test_similarity_cache_and_named;
        Alcotest.test_case "candidates cache" `Quick test_candidates_cache;
        Alcotest.test_case "protocol parse ok" `Quick test_protocol_parse_ok;
        Alcotest.test_case "protocol parse errors" `Quick test_protocol_parse_errors;
        Alcotest.test_case "execute lifecycle" `Quick test_execute_lifecycle;
        Alcotest.test_case "execute budget trip" `Quick test_execute_budget_trip;
        Alcotest.test_case "ping and health" `Quick test_ping_health;
        Alcotest.test_case "socket round trip" `Quick test_socket_roundtrip;
      ] );
  ]
