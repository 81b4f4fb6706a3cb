(* Robustness of the multiplexed daemon: the widened exception guard, the
   bounded line reader and fault grid at the Conn level, idle eviction,
   admission control (connections and pending solves), the
   stalled-client-does-not-block-others property, mid-solve disconnects,
   and client retry with back-off against a busy daemon. *)

module Budget = Phom_graph.Budget
module Protocol = Phom_server.Protocol
module Daemon = Phom_server.Daemon
module Client = Phom_server.Client
module Conn = Phom_server.Conn
module Faults = Phom_server.Faults
module Lru = Phom_server.Lru
module Pool = Phom_parallel.Pool

let fig1_pattern = Filename.concat "../data" "fig1_pattern.phg"
let fig1_store = Filename.concat "../data" "fig1_store.phg"
let fig1_mate = Filename.concat "../data" "fig1_mate.phs"

let ok_or_fail = function
  | Ok v -> v
  | Error m -> Alcotest.failf "unexpected error: %s" m

let check_prefix name prefix reply =
  if
    not
      (String.length reply >= String.length prefix
      && String.sub reply 0 (String.length prefix) = prefix)
  then Alcotest.failf "%s: expected %S..., got %S" name prefix reply

(* run [f addr] against a live daemon on a fresh socket; joins the server
   and asserts the socket was unlinked *)
let with_daemon ?(config = Daemon.default_config) f =
  let dir = Filename.temp_file "phomd_robust" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "d.sock" in
  let ready_lock = Mutex.create () and ready_cond = Condition.create () in
  let is_ready = ref false in
  let config = { config with Daemon.socket_path = Some sock } in
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
  (* admission control races with connection teardown: a just-closed peer
     still counts as live until the daemon reads its EOF, so a one-shot
     request right after a close can be shed busy — retry through it *)
  let patient = { Client.retries = 20; delay = 0.05; max_delay = 0.2 } in
  Fun.protect
    ~finally:(fun () ->
      Faults.clear ();
      (* best-effort shutdown in case the test failed before its own *)
      ignore
        (Client.request ~connect_timeout:5. ~read_timeout:5. ~backoff:patient
           addr "shutdown");
      Domain.join server;
      Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock);
      Unix.rmdir dir)
    (fun () -> f addr)

let patient_backoff = { Client.retries = 20; delay = 0.05; max_delay = 0.2 }

let ask ?(read_timeout = 10.) addr line =
  ok_or_fail (Client.request ~read_timeout ~backoff:patient_backoff addr line)

let load_fig1 addr =
  check_prefix "load pat" "ok loaded graph pat"
    (ask addr ("load graph pat " ^ fig1_pattern));
  check_prefix "load store" "ok loaded graph store"
    (ask addr ("load graph store " ^ fig1_store))

(* ---- the widened exception guard ---- *)

(* the internal-error counters in [stats]: the one labelled [exn] and the
   sum over every label *)
let internal_errors st exn =
  let reply, _ = Daemon.execute st Protocol.Stats in
  let name = "phom_daemon_internal_errors_total{" in
  let labelled = Printf.sprintf "%sexn=%S} " name exn in
  List.fold_left
    (fun (mine, all) line ->
      if String.starts_with ~prefix:name line then
        let value = int_of_string (List.nth (String.split_on_char ' ' line) 1) in
        ( (if String.starts_with ~prefix:labelled line then mine + value else mine),
          all + value )
      else (mine, all))
    (0, 0)
    (String.split_on_char '\n' reply)

let test_internal_error_opaque () =
  let st = Daemon.make_state Daemon.default_config in
  let not_found = Printexc.exn_slot_name Not_found in
  let before = internal_errors st not_found in
  Faults.set_execute_hook (Some (fun () -> raise Not_found));
  Fun.protect ~finally:Faults.clear (fun () ->
      let reply, next = Daemon.execute st Protocol.Version in
      Alcotest.(check string) "opaque reply" "error internal" reply;
      Alcotest.(check bool) "connection survives" true (next = `Continue));
  let after = internal_errors st not_found in
  Alcotest.(check int) "counted by constructor" (fst before + 1) (fst after);
  Alcotest.(check int) "counted once" (snd before + 1) (snd after);
  (* user-level errors still keep their message, and are not counted *)
  Faults.set_execute_hook (Some (fun () -> failwith "told you so"));
  Fun.protect ~finally:Faults.clear (fun () ->
      let reply, _ = Daemon.execute st Protocol.Version in
      Alcotest.(check string) "Failure passes through" "error told you so" reply);
  Alcotest.(check int) "Failure not counted" (snd after)
    (snd (internal_errors st not_found));
  (* and the daemon keeps answering afterwards *)
  let reply, _ = Daemon.execute st Protocol.Version in
  check_prefix "still alive" "ok phomd" reply;
  (* solve and count meet the same guard, in process and over a socket,
     and each still counts as exactly one request *)
  let hooks =
    [
      ((fun () -> raise Not_found), "error internal");
      ((fun () -> failwith "told you so"), "error told you so");
    ]
  in
  let engine_lines = [ "solve card pat store"; "count pat store" ] in
  List.iter
    (fun line ->
      ignore (Daemon.execute st (ok_or_fail (Protocol.parse line))))
    [ "load graph pat " ^ fig1_pattern; "load graph store " ^ fig1_store ];
  List.iter
    (fun (hook, expected) ->
      Faults.set_execute_hook (Some hook);
      Fun.protect ~finally:Faults.clear (fun () ->
          List.iter
            (fun line ->
              let before = Daemon.requests_served st in
              let reply, next =
                Daemon.execute st (ok_or_fail (Protocol.parse line))
              in
              Alcotest.(check string) ("in process: " ^ line) expected reply;
              Alcotest.(check bool) "connection survives" true (next = `Continue);
              Alcotest.(check int) ("counted once: " ^ line) (before + 1)
                (Daemon.requests_served st))
            engine_lines))
    hooks;
  with_daemon (fun addr ->
      load_fig1 addr;
      let conn = ok_or_fail (Client.connect addr) in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          let send line = ok_or_fail (Client.send ~timeout:10. conn line) in
          (* health's requests= counts every request, itself included *)
          let served () =
            let reply = send "health" in
            match List.rev (String.split_on_char ' ' reply) with
            | last :: _ when String.starts_with ~prefix:"requests=" last ->
                int_of_string (String.sub last 9 (String.length last - 9))
            | _ -> Alcotest.failf "no requests= in %S" reply
          in
          List.iter
            (fun (hook, expected) ->
              let before = served () in
              Faults.set_execute_hook (Some hook);
              Fun.protect ~finally:Faults.clear (fun () ->
                  List.iter
                    (fun line ->
                      Alcotest.(check string) ("over the socket: " ^ line)
                        expected (send line))
                    engine_lines);
              Alcotest.(check int) "one count per request"
                (before + List.length engine_lines + 1)
                (served ()))
            hooks;
          check_prefix "same connection still open" "ok solve problem=CPH"
            (send "solve card pat store")))

(* ---- one pipeline: in process and over a socket, the same bytes ---- *)

(* no wall-clock budget: the stream trips budgets with step caps only, so
   every reply is deterministic *)
let differential_config = { Daemon.default_config with Daemon.default_timeout = None }

(* a scripted stream over every shape the pipeline stages: loads, all four
   problems direct and exact, counts, [--jobs 1] requests, a step-tripped
   solve and count, edits with re-solves, an unknown name, a malformed
   line, and [health], whose requests= counter must agree as well *)
let differential_stream () =
  let rng = Random.State.make [| 0xd1ff |] in
  let labels = [| "A"; "B"; "C" |] in
  let lbl _ = labels.(Random.State.int rng (Array.length labels)) in
  let tp = Phom_graph.Generators.random_tree ~rng ~n:8 ~labels:lbl in
  let dg = Phom_graph.Generators.erdos_renyi ~rng ~n:12 ~m:24 ~labels:lbl in
  let save g =
    let path = Filename.temp_file "phomd_diff" ".phg" in
    Phom_graph.Graph_io.save path g;
    path
  in
  let tp_path = save tp and dg_path = save dg in
  (* an edge outside dg's 2-hop closure whose labels match a pattern
     edge's, so the edit changes what the hop-bounded re-solves see *)
  let module D = Phom_graph.Digraph in
  let reach = Phom_graph.Bounded_closure.relation ~hops:2 dg in
  let u, v =
    List.find
      (fun (u, v) ->
        u <> v
        && (not (Phom_graph.Bitmatrix.get reach u v))
        && List.exists
             (fun (a, b) ->
               D.label tp a = D.label dg u && D.label tp b = D.label dg v)
             (D.edges tp))
      (List.init 144 (fun i -> (i / 12, i mod 12)))
  in
  let per_problem p =
    [
      Printf.sprintf "solve %s pat store --mat mate --xi 0.6 --algorithm direct" p;
      Printf.sprintf "solve %s pat store --mat mate --xi 0.6 --algorithm exact" p;
      Printf.sprintf "solve %s tp dg --xi 0.5 --algorithm exact" p;
      Printf.sprintf "solve %s tp dg --sim shingles --xi 0.5" p;
    ]
  in
  let resolve =
    [ "solve card tp dg --xi 0.5 --hops 2 --partition"; "count tp dg --xi 0.5 --hops 2" ]
  in
  let lines =
    [
      "version";
      "load graph pat " ^ fig1_pattern;
      "load graph store " ^ fig1_store;
      "load mat mate " ^ fig1_mate;
      "load graph tp " ^ tp_path;
      "load graph dg " ^ dg_path;
    ]
    @ List.concat_map per_problem [ "card"; "card11"; "sim"; "sim11" ]
    @ [
        "count pat store --mat mate --xi 0.6";
        "count tp dg --xi 0.5";
        "solve sim tp dg --xi 0.5 --partition --jobs 1";
        "count tp dg --xi 0.5 --jobs 1";
        "solve sim11 tp dg --xi 0.4 --algorithm exact --steps 40";
        "count tp dg --xi 0.4 --steps 10";
      ]
    @ resolve
    @ [ Printf.sprintf "addedge dg %d %d" u v ]
    @ resolve
    @ [ Printf.sprintf "deledge dg %d %d" u v ]
    @ resolve
    @ [ "solve card tp nosuch"; "solve card tp"; "list"; "health" ]
  in
  (lines, fun () -> List.iter Sys.remove [ tp_path; dg_path ])

let in_process ?pool lines =
  let st = Daemon.make_state ?pool differential_config in
  List.map
    (fun line ->
      match Protocol.parse line with
      | Ok req -> fst (Daemon.execute st req)
      | Error e -> Protocol.sanitize ("error " ^ e))
    lines

let over_socket ~jobs lines =
  let replies = ref [] in
  with_daemon ~config:{ differential_config with Daemon.jobs } (fun addr ->
      let conn = ok_or_fail (Client.connect addr) in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          replies :=
            List.map
              (fun line -> ok_or_fail (Client.send ~timeout:30. conn line))
              lines));
  !replies

let test_in_process_matches_socket () =
  let lines, cleanup = differential_stream () in
  Fun.protect ~finally:cleanup (fun () ->
      let compare what a b =
        List.iteri
          (fun i line ->
            Alcotest.(check string)
              (Printf.sprintf "%s, line %d %S" what i line)
              (List.nth a i) (List.nth b i))
          lines
      in
      let sequential = in_process lines in
      compare "pool-less execute vs jobs=1 socket" sequential
        (over_socket ~jobs:1 lines);
      let pooled = Pool.with_pool ~domains:2 (fun pool -> in_process ~pool lines) in
      compare "2-domain execute vs jobs=2 socket" pooled (over_socket ~jobs:2 lines);
      (* the stream reaches what it claims to *)
      let all = String.concat "\n" sequential in
      Alcotest.(check int) "two step-tripped replies" 2
        (Helpers.count_substring ~needle:"status=exhausted(steps)" all);
      Alcotest.(check int) "edits applied" 2
        (Helpers.count_substring ~needle:"applied=1" all);
      check_prefix "unknown name" "error unknown graph nosuch"
        (List.nth sequential (List.length lines - 4));
      check_prefix "malformed line" "error " (List.nth sequential (List.length lines - 3)))

(* ---- step caps do not depend on the pool ---- *)

(* every solve runs on the request's own job, so a step cap answers the
   same on a state made without a pool and on one made with a 2-domain
   pool, as [phomd --jobs 2] makes it: complete exactly when the cap covers
   the steps the request takes in process. Two shapes: the DP's rows, on
   seeded 9-node trees with at least two join nodes against 24-node DAGs,
   counted and solved exactly; and a [--partition] solve of a pattern of
   four weak components, solved one after another. The closure and the
   matrix are warmed first, so the engine's steps are all a capped request
   spends. Each probe takes a fresh xi: label equality gives every xi in
   (0, 1] the same candidates, so the steps stay put while the count cache
   and the warm-start store keep missing. *)
let test_step_caps_ignore_pool () =
  let module G = Phom_graph.Generators in
  let module Td = Phom_treedecomp.Treedecomp in
  let labels = [| "A"; "B"; "C" |] in
  let joins g =
    Array.fold_left
      (fun n k -> if k = Td.Join then n + 1 else n)
      0
      (Td.nice (Td.compute g)).Td.nkind
  in
  let execute st line =
    match Protocol.parse line with
    | Ok req -> fst (Daemon.execute st req)
    | Error e -> Alcotest.failf "%S does not parse: %s" line e
  in
  let steps f =
    let b = Budget.unlimited () in
    ignore (f b);
    Budget.steps_used b
  in
  (* load [g1] as p and [g2] as d into a plain and a pooled state, warm
     both with [warm_up], then send each request at caps need - 1, need
     and need + 1 *)
  let probe pool ~what ~warm_up (g1, g2) requests =
    let paths =
      List.map
        (fun g ->
          let path = Filename.temp_file "phomd_caps" ".phg" in
          Phom_graph.Graph_io.save path g;
          path)
        [ g1; g2 ]
    in
    Fun.protect
      ~finally:(fun () -> List.iter Sys.remove paths)
      (fun () ->
        let plain = Daemon.make_state differential_config
        and pooled = Daemon.make_state ~pool differential_config in
        List.iter
          (fun st ->
            List.iter2
              (fun name path ->
                check_prefix "load" "ok loaded"
                  (execute st (Printf.sprintf "load graph %s %s" name path)))
              [ "p"; "d" ] paths;
            check_prefix "warm-up" "ok " (execute st warm_up))
          [ plain; pooled ];
        let xi = ref 0.5 in
        List.iter
          (fun (request, need) ->
            List.iter
              (fun cap ->
                xi := !xi +. 0.01;
                let line = Printf.sprintf "%s --xi %.2f --steps %d" request !xi cap in
                let where w = Printf.sprintf "%s, %d steps, %S: %s" what need line w in
                let reply = execute plain line in
                Alcotest.(check string) (where "pooled = plain") reply
                  (execute pooled line);
                let status =
                  if cap >= need then "status=complete" else "status=exhausted(steps)"
                in
                if Helpers.count_substring ~needle:status reply <> 1 then
                  Alcotest.failf "%s, got %S" (where status) reply)
              [ need - 1; need; need + 1 ])
          requests)
  in
  Pool.with_pool ~domains:2 (fun pool ->
      for seed = 0 to 5 do
        let rng = Random.State.make [| 0x5ca9; seed |] in
        let lbl _ = labels.(Random.State.int rng (Array.length labels)) in
        let rec pattern () =
          let g = G.random_tree ~rng ~n:9 ~labels:lbl in
          if joins g >= 2 then g else pattern ()
        in
        let tp = pattern () in
        let dg = G.random_dag ~rng ~n:24 ~m:60 ~labels:lbl in
        (* the instance every probe builds, at any xi in (0, 1] *)
        let t = Helpers.eq_instance tp dg in
        probe pool
          ~what:(Printf.sprintf "seed %d" seed)
          ~warm_up:"count p d --xi 0.45" (tp, dg)
          [
            ("count p d", steps (fun budget -> Phom.Dp.count ~budget t));
            ( "solve card p d --algorithm exact",
              steps (fun budget ->
                  Phom.Dp.solve ~budget ~objective:Phom.Exact.Cardinality t) );
          ]
      done;
      let g1, g2 = Helpers.multi_component_pair 1 in
      let components = (Phom_graph.Components.compute g1).Phom_graph.Components.count in
      if components < 3 then Alcotest.failf "%d weak components, not 3 or more" components;
      let t = Helpers.eq_instance ~xi:0.75 g1 g2 in
      probe pool ~what:"partition" ~warm_up:"solve card p d --xi 0.45" (g1, g2)
        [
          ( "solve card p d --partition",
            steps (fun budget ->
                Phom.Api.solve_within ~partition:true ~budget Phom.Api.CPH t) );
        ])

(* ---- Conn: bounded reader and fault grid (socketpair, no daemon) ---- *)

let with_pair f =
  let daemon_fd, peer_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock daemon_fd;
  Fun.protect
    ~finally:(fun () ->
      Faults.clear ();
      (try Unix.close daemon_fd with Unix.Unix_error _ -> ());
      try Unix.close peer_fd with Unix.Unix_error _ -> ())
    (fun () -> f daemon_fd peer_fd)

let write_str fd s =
  let b = Bytes.of_string s in
  let n = Unix.write fd b 0 (Bytes.length b) in
  Alcotest.(check int) "test-side write completes" (Bytes.length b) n

let read_outcome =
  Alcotest.of_pp (fun ppf o ->
      Fmt.string ppf
        (match o with
        | Conn.Progress -> "Progress"
        | Conn.Line_too_long -> "Line_too_long"
        | Conn.Peer_closed -> "Peer_closed"))

let test_conn_bounded_reader () =
  with_pair (fun daemon_fd peer_fd ->
      let c = Conn.create ~max_line:8 ~idle_timeout:None ~now:0. daemon_fd in
      (* a line exactly at the bound passes *)
      write_str peer_fd "12345678\n";
      Alcotest.check read_outcome "at bound" Conn.Progress (Conn.handle_read c);
      Alcotest.(check (option string)) "line delivered" (Some "12345678")
        (Conn.next_line c);
      (* one byte over trips the bound, even split across reads *)
      write_str peer_fd "12345";
      Alcotest.check read_outcome "under bound so far" Conn.Progress
        (Conn.handle_read c);
      write_str peer_fd "6789\n";
      Alcotest.check read_outcome "over bound" Conn.Line_too_long
        (Conn.handle_read c);
      (* an overflowed connection stops reading *)
      Alcotest.(check bool) "no more reads" false (Conn.want_read c))

let test_conn_unterminated_flood () =
  with_pair (fun daemon_fd peer_fd ->
      let c = Conn.create ~max_line:16 ~idle_timeout:None ~now:0. daemon_fd in
      (* a peer that never sends the newline must still be bounded *)
      write_str peer_fd (String.make 64 'x');
      Alcotest.check read_outcome "unterminated overflow" Conn.Line_too_long
        (Conn.handle_read c))

let test_conn_fault_grid () =
  (* short read: one byte at a time still assembles a full line *)
  with_pair (fun daemon_fd peer_fd ->
      let c = Conn.create ~max_line:64 ~idle_timeout:None ~now:0. daemon_fd in
      Faults.inject Faults.Read ~after:0 Faults.Short;
      Faults.inject Faults.Read ~after:1 Faults.Short;
      write_str peer_fd "ab\n";
      Alcotest.check read_outcome "short 1" Conn.Progress (Conn.handle_read c);
      Alcotest.check read_outcome "short 2" Conn.Progress (Conn.handle_read c);
      Alcotest.check read_outcome "rest" Conn.Progress (Conn.handle_read c);
      Alcotest.(check (option string)) "line assembled" (Some "ab")
        (Conn.next_line c);
      Alcotest.(check int) "plan fully fired" 0 (Faults.armed ()));
  (* EINTR is absorbed, not fatal *)
  with_pair (fun daemon_fd peer_fd ->
      let c = Conn.create ~max_line:64 ~idle_timeout:None ~now:0. daemon_fd in
      Faults.inject Faults.Read ~after:0 Faults.Eintr;
      write_str peer_fd "ping\n";
      Alcotest.check read_outcome "EINTR absorbed" Conn.Progress
        (Conn.handle_read c);
      Alcotest.check read_outcome "retry reads" Conn.Progress
        (Conn.handle_read c);
      Alcotest.(check (option string)) "line survives EINTR" (Some "ping")
        (Conn.next_line c));
  (* mid-line disconnect: partial line then EOF *)
  with_pair (fun daemon_fd peer_fd ->
      let c = Conn.create ~max_line:64 ~idle_timeout:None ~now:0. daemon_fd in
      write_str peer_fd "solve card pat sto";
      Alcotest.check read_outcome "partial" Conn.Progress (Conn.handle_read c);
      Faults.inject Faults.Read ~after:0 Faults.Disconnect;
      Alcotest.check read_outcome "mid-line EOF" Conn.Peer_closed
        (Conn.handle_read c);
      Alcotest.(check (option string)) "no phantom line" None (Conn.next_line c));
  (* short writes: the reply drains over several flushes *)
  with_pair (fun daemon_fd peer_fd ->
      let c = Conn.create ~max_line:64 ~idle_timeout:None ~now:0. daemon_fd in
      Faults.inject Faults.Write ~after:0 Faults.Short;
      Faults.inject Faults.Write ~after:1 Faults.Short;
      Conn.send_line c "ok done";
      while Conn.want_write c do
        Conn.handle_write c
      done;
      let b = Bytes.create 64 in
      let n = Unix.read peer_fd b 0 64 in
      Alcotest.(check string) "reply intact" "ok done\n" (Bytes.sub_string b 0 n));
  (* write fault: EPIPE closes the connection instead of raising *)
  with_pair (fun daemon_fd _peer_fd ->
      let c = Conn.create ~max_line:64 ~idle_timeout:None ~now:0. daemon_fd in
      Faults.inject Faults.Write ~after:0 Faults.Disconnect;
      Conn.send_line c "ok never-arrives";
      Conn.handle_write c;
      Alcotest.(check bool) "closed, not raised" false (Conn.is_open c))

let test_conn_deadline () =
  with_pair (fun daemon_fd _peer_fd ->
      let c =
        Conn.create ~max_line:64 ~idle_timeout:(Some 10.) ~now:100. daemon_fd
      in
      Alcotest.(check bool) "fresh" false (Conn.expired c ~now:105.);
      Alcotest.(check bool) "expired" true (Conn.expired c ~now:110.);
      Conn.touch c ~now:109.;
      Alcotest.(check bool) "touch re-arms" false (Conn.expired c ~now:115.);
      Alcotest.(check (float 1e-9)) "deadline" 119. (Conn.deadline c))

(* ---- idle eviction over a live socket ---- *)

let test_idle_eviction () =
  let config =
    { Daemon.default_config with Daemon.idle_timeout = Some 0.3 }
  in
  with_daemon ~config (fun addr ->
      let conn = ok_or_fail (Client.connect addr) in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          (* send nothing; the daemon must evict us with a reason *)
          let reply = ok_or_fail (Client.receive ~timeout:5. conn) in
          Alcotest.(check string) "evicted with a reason" "error idle-timeout"
            reply;
          match Client.receive ~timeout:5. conn with
          | Error _ -> ()
          | Ok l -> Alcotest.failf "expected close after eviction, got %S" l);
      (* the daemon is unharmed *)
      check_prefix "still serving" "ok phomd" (ask addr "version"))

(* ---- a stalled client does not block a healthy one ---- *)

let test_stalled_client_does_not_block () =
  let config =
    { Daemon.default_config with Daemon.jobs = 3; idle_timeout = Some 30. }
  in
  with_daemon ~config (fun addr ->
      load_fig1 addr;
      (* a silent connection and a half-line trickler, both left hanging *)
      let stalled = ok_or_fail (Client.connect addr) in
      let trickler = ok_or_fail (Client.connect addr) in
      ok_or_fail (Client.post trickler "solve card pat sto");
      Fun.protect
        ~finally:(fun () ->
          Client.close stalled;
          Client.close trickler)
        (fun () ->
          let t0 = Unix.gettimeofday () in
          let reply =
            ok_or_fail
              (Client.request ~read_timeout:10. addr
                 "solve card pat store --sim shingles --xi 0.5")
          in
          let dt = Unix.gettimeofday () -. t0 in
          check_prefix "healthy solve" "ok solve problem=CPH" reply;
          Alcotest.(check bool) "status complete" true
            (Helpers.count_substring ~needle:"status=complete" reply = 1);
          (* a generous bound: the stalled peers must not serialize us
             behind their 30 s idle timeout *)
          Alcotest.(check bool) "unblocked promptly" true (dt < 5.)))

(* ---- mid-solve disconnect ---- *)

let test_mid_solve_disconnect () =
  let config = { Daemon.default_config with Daemon.jobs = 3 } in
  with_daemon ~config (fun addr ->
      load_fig1 addr;
      Faults.set_solve_delay 0.3;
      let conn = ok_or_fail (Client.connect addr) in
      ok_or_fail
        (Client.post conn "solve card pat store --sim equality --hops 2");
      Client.close conn;
      Faults.set_solve_delay 0.;
      (* the orphaned solve must neither kill the daemon nor wedge it *)
      check_prefix "daemon alive" "ok phomd" (ask addr "version");
      Unix.sleepf 0.5;
      check_prefix "after orphan finished" "ok stats" (ask addr "stats"))

(* ---- admission control ---- *)

let test_busy_connections () =
  let config = { Daemon.default_config with Daemon.max_conns = 2 } in
  with_daemon ~config (fun addr ->
      let c1 = ok_or_fail (Client.connect addr) in
      let c2 = ok_or_fail (Client.connect addr) in
      Fun.protect
        ~finally:(fun () ->
          Client.close c1;
          Client.close c2)
        (fun () ->
          check_prefix "slot 1 usable" "ok phomd"
            (ok_or_fail (Client.send ~timeout:5. c1 "version"));
          check_prefix "slot 2 usable" "ok phomd"
            (ok_or_fail (Client.send ~timeout:5. c2 "version"));
          (* the third connection is shed with a retry hint *)
          let c3 = ok_or_fail (Client.connect addr) in
          Fun.protect
            ~finally:(fun () -> Client.close c3)
            (fun () ->
              let reply = ok_or_fail (Client.receive ~timeout:5. c3) in
              check_prefix "shed" "error busy retry-after=" reply;
              Alcotest.(check (option (float 1e-9))) "parsable hint" (Some 1.)
                (Client.retry_after_hint reply);
              (* and then cleanly closed *)
              match Client.receive ~timeout:5. c3 with
              | Error _ -> ()
              | Ok l -> Alcotest.failf "expected close after shed, got %S" l));
      (* releasing a slot readmits new connections *)
      Client.close c1;
      Unix.sleepf 0.1;
      check_prefix "readmitted" "ok phomd" (ask addr "version"))

let test_busy_pending_solves () =
  let config =
    { Daemon.default_config with Daemon.jobs = 2; max_pending = 1 }
  in
  with_daemon ~config (fun addr ->
      load_fig1 addr;
      Faults.set_solve_delay 0.4;
      let c1 = ok_or_fail (Client.connect addr) in
      let c2 = ok_or_fail (Client.connect addr) in
      Fun.protect
        ~finally:(fun () ->
          Faults.set_solve_delay 0.;
          Client.close c1;
          Client.close c2)
        (fun () ->
          ok_or_fail
            (Client.post c1 "solve card pat store --sim equality --hops 2");
          Unix.sleepf 0.1;
          (* the queue is full: the second solve is shed, but the
             connection survives to retry *)
          let reply =
            ok_or_fail (Client.send ~timeout:5. c2 "solve card pat store")
          in
          check_prefix "solve shed" "error busy retry-after=" reply;
          check_prefix "same connection still usable" "ok phomd"
            (ok_or_fail (Client.send ~timeout:5. c2 "version"));
          (* the first solve still completes *)
          let r1 = ok_or_fail (Client.receive ~timeout:10. c1) in
          check_prefix "first solve unharmed" "ok solve problem=CPH" r1))

(* ---- client retry with back-off ---- *)

let test_client_retry_backoff () =
  let config = { Daemon.default_config with Daemon.max_conns = 1 } in
  with_daemon ~config (fun addr ->
      let holder = ok_or_fail (Client.connect addr) in
      check_prefix "holder occupies the only slot" "ok phomd"
        (ok_or_fail (Client.send ~timeout:5. holder "version"));
      let releaser =
        Domain.spawn (fun () ->
            Unix.sleepf 0.4;
            Client.close holder)
      in
      Fun.protect
        ~finally:(fun () -> Domain.join releaser)
        (fun () ->
          (* one shot is shed... *)
          let shed = ok_or_fail (Client.request ~read_timeout:5. addr "version") in
          check_prefix "one-shot gets busy" "error busy retry-after=" shed;
          (* ...but retry with back-off lands once the slot frees up *)
          let backoff =
            { Client.retries = 8; delay = 0.05; max_delay = 0.2 }
          in
          let rng = Random.State.make [| 42 |] in
          let reply =
            ok_or_fail
              (Client.request ~read_timeout:5. ~backoff ~rng addr "version")
          in
          check_prefix "retry succeeds" "ok phomd" reply))

let test_retry_after_hint_parser () =
  Alcotest.(check (option (float 1e-9))) "well-formed" (Some 2.5)
    (Client.retry_after_hint "error busy retry-after=2.5");
  Alcotest.(check (option (float 1e-9))) "trailing tokens" (Some 1.)
    (Client.retry_after_hint "error busy retry-after=1 queue=32");
  Alcotest.(check (option (float 1e-9))) "not busy" None
    (Client.retry_after_hint "error unknown graph store");
  Alcotest.(check (option (float 1e-9))) "ok reply" None
    (Client.retry_after_hint "ok phomd 1.2.0 protocol 1");
  Alcotest.(check (option (float 1e-9))) "no hint" None
    (Client.retry_after_hint "error busy")

(* ---- unload racing in-flight solves must not resurrect artifacts ---- *)

let test_unload_never_resurrects () =
  let module Catalog = Phom_server.Catalog in
  let c = Catalog.create () in
  (* race a closure computation against the invalidation sweep: whatever
     the interleaving, a purged name must leave zero cached artifacts
     behind (the generation guard discards late put-backs) *)
  for _ = 1 to 20 do
    ignore (ok_or_fail (Catalog.load_graph c ~name:"store" ~path:fig1_store));
    let solver =
      Domain.spawn (fun () ->
          (* may race the unload: both success and unknown-graph are fine *)
          ignore (Catalog.closure c ~name:"store" ~hops:None))
    in
    ignore (ok_or_fail (Catalog.unload c "store"));
    Domain.join solver;
    Alcotest.(check int) "no artifact survives its graph" 0
      (Helpers.probe "phom_cache_entries")
  done;
  (* the probe that read 0 reads [c]: a closure it caches shows *)
  ignore (ok_or_fail (Catalog.load_graph c ~name:"store" ~path:fig1_store));
  ignore (ok_or_fail (Catalog.closure c ~name:"store" ~hops:None));
  Alcotest.(check int) "probe reads this catalog" 1
    (Helpers.probe "phom_cache_entries")

(* ---- stale-socket detection at startup ---- *)

let test_stale_socket_detection () =
  (* against a live daemon, a second listener must refuse the socket *)
  with_daemon (fun addr ->
      let sock =
        match addr with Unix.ADDR_UNIX p -> p | _ -> assert false
      in
      (match Daemon.listen_unix sock with
      | exception Invalid_argument msg ->
          check_prefix "refusal names the socket" sock msg
      | fd, _ ->
          Unix.close fd;
          Alcotest.fail "must refuse a socket with a live daemon behind it");
      (* and the incumbent daemon is unharmed by the probe *)
      check_prefix "incumbent still serving" "ok phomd" (ask addr "version"));
  (* a stale socket left by a crash (bound, nobody accepting) is replaced *)
  let dir = Filename.temp_file "phomd_stale" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "d.sock" in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.unlink sock with Unix.Unix_error _ -> ());
      Unix.rmdir dir)
    (fun () ->
      let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind dead (Unix.ADDR_UNIX sock);
      (* no listen/accept: connect-probe fails, so the socket is stale *)
      Unix.close dead;
      let fd, _ = Daemon.listen_unix sock in
      Unix.close fd;
      Alcotest.(check bool) "stale socket was replaced" true
        (Sys.file_exists sock))

(* ---- listener permissions ---- *)

let test_listen_unix_permissions () =
  let dir = Filename.temp_file "phomd_perm" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "d.sock" in
  let old_umask = Unix.umask 0o000 in
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.umask old_umask);
      (try Unix.unlink sock with Unix.Unix_error _ -> ());
      Unix.rmdir dir)
    (fun () ->
      let fd, _ = Daemon.listen_unix sock in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let st = Unix.lstat sock in
          Alcotest.(check int) "0600 despite a permissive umask" 0o600
            (st.Unix.st_perm land 0o777));
      (* a non-socket at the path is refused, not clobbered *)
      Unix.unlink sock;
      let oc = open_out sock in
      output_string oc "precious";
      close_out oc;
      (match Daemon.listen_unix sock with
      | exception Invalid_argument _ -> ()
      | fd, _ ->
          Unix.close fd;
          Alcotest.fail "must refuse to replace a regular file");
      let ic = open_in sock in
      let kept = input_line ic in
      close_in ic;
      Alcotest.(check string) "file untouched" "precious" kept)

let suite =
  [
    ( "daemon robustness",
      [
        Alcotest.test_case "internal errors are opaque" `Quick
          test_internal_error_opaque;
        Alcotest.test_case "in-process and socket replies agree" `Quick
          test_in_process_matches_socket;
        Alcotest.test_case "step caps do not depend on the pool" `Quick
          test_step_caps_ignore_pool;
        Alcotest.test_case "bounded reader" `Quick test_conn_bounded_reader;
        Alcotest.test_case "unterminated flood bounded" `Quick
          test_conn_unterminated_flood;
        Alcotest.test_case "conn fault grid" `Quick test_conn_fault_grid;
        Alcotest.test_case "conn idle deadline" `Quick test_conn_deadline;
        Alcotest.test_case "idle eviction" `Quick test_idle_eviction;
        Alcotest.test_case "stalled client does not block" `Quick
          test_stalled_client_does_not_block;
        Alcotest.test_case "mid-solve disconnect" `Quick
          test_mid_solve_disconnect;
        Alcotest.test_case "busy: connection admission" `Quick
          test_busy_connections;
        Alcotest.test_case "busy: pending solves" `Quick
          test_busy_pending_solves;
        Alcotest.test_case "client retry with back-off" `Quick
          test_client_retry_backoff;
        Alcotest.test_case "retry-after parser" `Quick
          test_retry_after_hint_parser;
        Alcotest.test_case "unload never resurrects artifacts" `Quick
          test_unload_never_resurrects;
        Alcotest.test_case "stale socket detection" `Quick
          test_stale_socket_detection;
        Alcotest.test_case "unix socket permissions" `Quick
          test_listen_unix_permissions;
      ] );
  ]
