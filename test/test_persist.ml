(* The durability layer: CRC-32 vectors, snapshot round trips, quarantine
   of corrupt and torn records, atomic-write failure injection, journal
   append/replay (including the kill -9 torn tail), and warm recovery of a
   daemon state from a previous state's dir — the in-process half of what
   scripts/chaos_smoke.sh proves against a live process. *)

module Persist = Phom_server.Persist
module Journal = Phom_server.Journal
module Catalog = Phom_server.Catalog
module Daemon = Phom_server.Daemon
module Protocol = Phom_server.Protocol
module Faults = Phom_server.Faults

let fig1_pattern = Filename.concat "../data" "fig1_pattern.phg"
let fig1_store = Filename.concat "../data" "fig1_store.phg"

let ok_or_fail = function
  | Ok v -> v
  | Error m -> Alcotest.failf "unexpected error: %s" m

let with_tmpdir f =
  let dir = Filename.temp_file "phom_persist" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Faults.clear ();
      let rec rm p =
        if Sys.is_directory p then begin
          Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
          Unix.rmdir p
        end
        else Sys.remove p
      in
      try rm dir with Sys_error _ -> ())
    (fun () -> f dir)

(* ---- CRC-32 ---- *)

let test_crc_vectors () =
  (* the standard zlib/IEEE check values *)
  Alcotest.(check string) "empty" "00000000" (Persist.crc32_hex "");
  Alcotest.(check string) "check string" "cbf43926"
    (Persist.crc32_hex "123456789");
  Alcotest.(check string) "fox" "414fa339"
    (Persist.crc32_hex "The quick brown fox jumps over the lazy dog");
  (* sensitivity: one flipped bit changes the sum *)
  Alcotest.(check bool) "bit flip detected" false
    (Persist.crc32 "123456789" = Persist.crc32 "123456788")

(* ---- signatures against the text-building reference ----

   [Reference] is the checksum and the graph signatures as they were first
   written: a CRC that boxes an [Int32] per byte, and an [analyze] that
   prints each component's canonical text with [Printf] into a [Buffer]
   before checksumming it. The streaming CRC and the catalog's one-pass
   [analyze] must give the same values on every input, since signatures
   are persisted, shown on the wire and embedded in cache keys. *)

module Reference = struct
  module D = Phom_graph.Digraph

  let crc_table =
    Array.init 256 (fun n ->
        let c = ref (Int32.of_int n) in
        for _ = 0 to 7 do
          c :=
            if Int32.logand !c 1l <> 0l then
              Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
            else Int32.shift_right_logical !c 1
        done;
        !c)

  let crc32 s =
    let c = ref 0xFFFFFFFFl in
    String.iter
      (fun ch ->
        let i =
          Int32.to_int
            (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
        in
        c := Int32.logxor crc_table.(i) (Int32.shift_right_logical !c 8))
      s;
    Int32.logxor !c 0xFFFFFFFFl

  let crc32_hex s = Printf.sprintf "%08lx" (crc32 s)

  (* (gsig, lsig, rep, comp_crc) *)
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
    let crcs = Array.map (fun b -> crc32_hex (Buffer.contents b)) bufs in
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
    ( crc32_hex summary,
      crc32_hex (Buffer.contents lbuf),
      Array.init n (fun v -> reps.(comp_of.(v))),
      Array.init n (fun v -> crcs.(comp_of.(v))) )
end

let test_crc_reference () =
  Alcotest.(check int32) "check value" 0xcbf43926l (Persist.crc32 "123456789");
  let rng = Random.State.make [| 0xC8C |] in
  let random_string len =
    String.init len (fun _ -> Char.chr (Random.State.int rng 256))
  in
  let inputs =
    [ ""; String.init 256 Char.chr; String.make 40_000 '\xff' ]
    @ List.init 40 (fun i -> random_string (Random.State.int rng (if i < 30 then 64 else 50_000)))
  in
  List.iteri
    (fun i s ->
      let what = Printf.sprintf "input %d (%d bytes)" i (String.length s) in
      Alcotest.(check int32) (what ^ ": crc32") (Reference.crc32 s) (Persist.crc32 s);
      Alcotest.(check string) (what ^ ": crc32_hex") (Reference.crc32_hex s)
        (Persist.crc32_hex s);
      (* streamed in two pieces and byte by byte *)
      let cut = if s = "" then 0 else Random.State.int rng (String.length s) in
      let halves =
        Persist.crc_string
          (Persist.crc_string Persist.crc_init (String.sub s 0 cut))
          (String.sub s cut (String.length s - cut))
      in
      Alcotest.(check string) (what ^ ": split") (Reference.crc32_hex s)
        (Persist.crc_hex halves);
      let bytes = ref Persist.crc_init in
      String.iter (fun ch -> bytes := Persist.crc_byte !bytes ch) s;
      Alcotest.(check string) (what ^ ": bytewise") (Reference.crc32_hex s)
        (Persist.crc_hex !bytes))
    inputs;
  List.iter
    (fun k ->
      Alcotest.(check string) (Printf.sprintf "decimal %d" k)
        (Reference.crc32_hex ("x" ^ string_of_int k))
        (Persist.crc_hex (Persist.crc_int (Persist.crc_byte Persist.crc_init 'x') k)))
    [ 0; 7; 9; 10; 99; 100; 999; 1000; 123456789; max_int ];
  Alcotest.check_raises "negative decimal"
    (Invalid_argument "Persist.crc_int: negative") (fun () ->
      ignore (Persist.crc_int Persist.crc_init (-1)))

(* graphs whose signatures exercise every separator: several weak
   components, isolated nodes, self-loops, no nodes at all, node ids of one
   to four digits, and labels with spaces, no bytes or non-ASCII bytes *)
let sig_labels = [| "a"; "L1"; ""; "a b"; "\xc3\xa9t\xc3\xa9"; "\xe6\x97\xa5\xe6\x9c\xac"; "x;y:z" |]

let sig_graph rng n =
  let module D = Phom_graph.Digraph in
  let labels =
    Array.init n (fun _ -> sig_labels.(Random.State.int rng (Array.length sig_labels)))
  in
  let m = if n = 0 then 0 else Random.State.int rng (n + 2) in
  let edges =
    List.init m (fun _ ->
        let u = Random.State.int rng n in
        (* one edge in five a self-loop *)
        (u, if Random.State.int rng 5 = 0 then u else Random.State.int rng n))
  in
  D.make ~labels ~edges:(List.sort_uniq compare edges)

let load_sig_graph c name g =
  ok_or_fail
    (Catalog.restore_record c
       { Persist.kind = "graph"; name;
         payload = Phom_graph.Graph_io.to_string g })

let check_pin_reference what (p : Catalog.pin) =
  let gsig, lsig, rep, crc = Reference.analyze p.Catalog.pin_graph in
  Alcotest.(check string) (what ^ ": pin_sig") gsig p.Catalog.pin_sig;
  Alcotest.(check string) (what ^ ": pin_lsig") lsig p.Catalog.pin_lsig;
  Alcotest.(check (array int)) (what ^ ": pin_rep") rep p.Catalog.pin_rep;
  Alcotest.(check (array string)) (what ^ ": pin_crc") crc p.Catalog.pin_crc

let test_signature_reference () =
  let rng = Random.State.make [| 0x516 |] in
  let c = Catalog.create () in
  let sizes = [ 0; 1; 2; 9; 10; 11; 30; 99; 100; 101; 250; 999; 1000; 1003 ] in
  List.iteri
    (fun i n ->
      let name = Printf.sprintf "g%d" i in
      load_sig_graph c name (sig_graph rng n);
      let p = ok_or_fail (Catalog.pin c name) in
      let what = Printf.sprintf "%d nodes, %d edges" n
          (Phom_graph.Digraph.nb_edges p.Catalog.pin_graph) in
      check_pin_reference what p)
    sizes

(* seeded add/delete scripts through [Catalog.edit]: the reply's [crc] and
   a fresh pin must equal the reference's signatures of the edited graph *)
let test_edit_signature_reference () =
  let module D = Phom_graph.Digraph in
  for seed = 0 to 11 do
    let rng = Random.State.make [| 0xED1; seed |] in
    let n = List.nth [ 1; 5; 12; 40; 120; 1002 ] (seed mod 6) in
    let g = ref (sig_graph rng n) in
    let c = Catalog.create () in
    load_sig_graph c "g" !g;
    for step = 1 to 25 do
      let u = Random.State.int rng n and v = Random.State.int rng n in
      let op = if D.has_edge !g u v then `Del else `Add in
      let what =
        Printf.sprintf "seed %d step %d (%s %d->%d)" seed step
          (match op with `Add -> "add" | `Del -> "del") u v
      in
      g := (match op with `Add -> D.add_edge !g u v | `Del -> D.remove_edge !g u v);
      let r = ok_or_fail (Catalog.edit c ~name:"g" ~op ~v:u ~w:v) in
      let gsig, _, _, _ = Reference.analyze !g in
      Alcotest.(check string) (what ^ ": reply crc") gsig r.Catalog.crc;
      let p = ok_or_fail (Catalog.pin c "g") in
      Alcotest.(check bool) (what ^ ": pinned graph") true (D.equal !g p.Catalog.pin_graph);
      check_pin_reference what p
    done
  done

(* ---- snapshot round trip and quarantine ---- *)

let sample_records =
  [
    { Persist.kind = "graph"; name = "pat"; payload = "digraph 3\n0 1\n" };
    { Persist.kind = "mat"; name = "m"; payload = String.make 257 '\xab' };
    (* payloads with newlines and NULs must survive byte-exactly *)
    { Persist.kind = "artifact"; name = "closure/pat/full";
      payload = "bin\x00ary\nlines\n" };
  ]

let record =
  Alcotest.testable
    (fun ppf (r : Persist.record) ->
      Fmt.pf ppf "%s %s (%d bytes)" r.kind r.name (String.length r.payload))
    (fun a b ->
      a.Persist.kind = b.Persist.kind
      && a.Persist.name = b.Persist.name
      && a.Persist.payload = b.Persist.payload)

let test_snapshot_roundtrip () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "s.snap" in
      let bytes = ok_or_fail (Persist.write_snapshot ~path sample_records) in
      Alcotest.(check bool) "size reported" true (bytes > 0);
      Alcotest.(check bool) "tmp gone" false (Sys.file_exists (path ^ ".tmp"));
      let records, quarantined = ok_or_fail (Persist.read_snapshot ~path) in
      Alcotest.(check int) "clean read" 0 quarantined;
      Alcotest.(check (list record)) "byte-exact round trip" sample_records
        records;
      (* empty snapshots are legal *)
      ignore (ok_or_fail (Persist.write_snapshot ~path []));
      let records, quarantined = ok_or_fail (Persist.read_snapshot ~path) in
      Alcotest.(check int) "empty clean" 0 quarantined;
      Alcotest.(check (list record)) "empty" [] records)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let test_snapshot_corrupt_record_quarantined () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "s.snap" in
      ignore (ok_or_fail (Persist.write_snapshot ~path sample_records));
      let content = read_file path in
      (* flip one byte inside the 257-byte matrix payload *)
      let i = String.index content '\xab' in
      let corrupted = Bytes.of_string content in
      Bytes.set corrupted i 'X';
      write_file path (Bytes.to_string corrupted);
      let records, quarantined =
        ok_or_fail (Persist.read_snapshot ~path)
      in
      Alcotest.(check int) "one record quarantined" 1 quarantined;
      Alcotest.(check (list string)) "the others survive intact"
        [ "pat"; "closure/pat/full" ]
        (List.map (fun (r : Persist.record) -> r.name) records))

let test_snapshot_torn_tail_quarantined () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "s.snap" in
      ignore (ok_or_fail (Persist.write_snapshot ~path sample_records));
      let content = read_file path in
      (* the kill -9 mid-write shape: the file simply stops partway *)
      write_file path (String.sub content 0 (String.length content / 2));
      let records, quarantined =
        ok_or_fail (Persist.read_snapshot ~path)
      in
      Alcotest.(check bool) "tear detected" true (quarantined >= 1);
      Alcotest.(check (list string)) "verified prefix survives" [ "pat" ]
        (List.map (fun (r : Persist.record) -> r.name) records);
      (* not-a-snapshot is an error, not a silent empty read *)
      write_file path "something else entirely\n";
      match Persist.read_snapshot ~path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "bad header must be refused")

let test_snapshot_write_failure_atomic () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "s.snap" in
      ignore (ok_or_fail (Persist.write_snapshot ~path sample_records));
      let before = read_file path in
      (* ENOSPC halfway through the replacement write *)
      Faults.inject Faults.Fwrite ~after:0 (Faults.Fail Unix.ENOSPC);
      (match
         Persist.write_snapshot ~path
           [ { Persist.kind = "graph"; name = "other"; payload = "xx" } ]
       with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "injected ENOSPC must surface as Error");
      Faults.clear ();
      Alcotest.(check bool) "no tmp litter" false
        (Sys.file_exists (path ^ ".tmp"));
      Alcotest.(check string) "old snapshot intact" before (read_file path))

let test_bad_record_tokens_rejected () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "s.snap" in
      match
        Persist.write_snapshot ~path
          [ { Persist.kind = "graph"; name = "a b"; payload = "" } ]
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "a name with a space must be refused")

(* ---- journal ---- *)

let sample_events =
  [
    Journal.Load_graph
      { name = "pat"; path = "/tmp/dir with space/p.phg"; crc = "cbf43926" };
    Journal.Load_mat { name = "m"; path = "/tmp/m.phs"; crc = "00000000" };
    Journal.Artifact "closure/pat/full";
    Journal.Edit { name = "pat"; op = "add"; v = 0; w = 3; crc = "deadbeef" };
    Journal.Unload "pat";
  ]

let event =
  Alcotest.testable
    (fun ppf (e : Journal.event) ->
      Fmt.string ppf
        (match e with
        | Journal.Load_graph { name; path; crc } ->
            Printf.sprintf "load-graph %s %s %s" name path crc
        | Journal.Load_mat { name; path; crc } ->
            Printf.sprintf "load-mat %s %s %s" name path crc
        | Journal.Unload n -> "unload " ^ n
        | Journal.Edit { name; op; v; w; crc } ->
            Printf.sprintf "edit %s %s %d %d %s" name op v w crc
        | Journal.Artifact t -> "artifact " ^ t))
    ( = )

let test_journal_roundtrip () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "j.journal" in
      let j = ok_or_fail (Journal.open_append ~path ~fsync:Journal.Always) in
      List.iter (Journal.append j) sample_events;
      Alcotest.(check int) "all appended" 5 (Journal.appended j);
      Alcotest.(check int) "no errors" 0 (Journal.errors j);
      Journal.close j;
      let events, quarantined = ok_or_fail (Journal.replay ~path) in
      Alcotest.(check int) "clean replay" 0 quarantined;
      Alcotest.(check (list event)) "events round trip (paths with spaces)"
        sample_events events)

let test_journal_torn_tail_stops_replay () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "j.journal" in
      let j = ok_or_fail (Journal.open_append ~path ~fsync:Journal.Never) in
      List.iter (Journal.append j) sample_events;
      Journal.close j;
      (* tear the last line in half, as a kill -9 mid-append would *)
      let content = read_file path in
      write_file path (String.sub content 0 (String.length content - 9));
      let events, quarantined = ok_or_fail (Journal.replay ~path) in
      Alcotest.(check int) "tear quarantined" 1 quarantined;
      Alcotest.(check (list event)) "replay stops at the tear"
        [ List.nth sample_events 0; List.nth sample_events 1;
          List.nth sample_events 2; List.nth sample_events 3 ]
        events;
      (* a corrupted middle line also stops replay: order past it is
         untrustworthy *)
      let lines = String.split_on_char '\n' content in
      let flipped =
        List.mapi
          (fun i l ->
            if i = 2 then "J1 deadbeef " ^ String.concat " " [ "unload"; "pat" ]
            else l)
          lines
      in
      write_file path (String.concat "\n" flipped);
      let events, quarantined = ok_or_fail (Journal.replay ~path) in
      Alcotest.(check int) "bad line quarantined" 1 quarantined;
      Alcotest.(check int) "only the verified prefix replays" 1
        (List.length events))

let test_journal_rotate_and_append_failure () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "j.journal" in
      let j = ok_or_fail (Journal.open_append ~path ~fsync:Journal.Interval) in
      List.iter (Journal.append j) sample_events;
      Journal.rotate j;
      (* rotation supersedes everything: an immediately following replay is
         empty, and the fd keeps working for post-rotation appends *)
      let events, quarantined = ok_or_fail (Journal.replay ~path) in
      Alcotest.(check int) "rotated clean" 0 quarantined;
      Alcotest.(check (list event)) "rotated empty" [] events;
      Journal.append j (Journal.Unload "late");
      Journal.flush j;
      let events, _ = ok_or_fail (Journal.replay ~path) in
      Alcotest.(check (list event)) "append after rotate survives"
        [ Journal.Unload "late" ] events;
      (* a failed append degrades, never raises *)
      Faults.inject Faults.Fwrite ~after:0 (Faults.Fail Unix.ENOSPC);
      Journal.append j (Journal.Unload "lost");
      Faults.clear ();
      Alcotest.(check int) "failure counted" 1 (Journal.errors j);
      Journal.close j;
      let events, _ = ok_or_fail (Journal.replay ~path) in
      Alcotest.(check (list event)) "failed append left no trace"
        [ Journal.Unload "late" ] events)

(* ---- catalog restore defenses ---- *)

let test_restore_record_defenses () =
  let c = Catalog.create () in
  let expect_error name r =
    match Catalog.restore_record c r with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s: must be quarantined" name
  in
  expect_error "unknown kind"
    { Persist.kind = "wat"; name = "x"; payload = "" };
  expect_error "undecodable graph"
    { Persist.kind = "graph"; name = "g"; payload = "not a graph" };
  expect_error "unknown artifact key"
    { Persist.kind = "artifact"; name = "bogus/token"; payload = "x" };
  expect_error "artifact for an absent graph"
    {
      Persist.kind = "artifact";
      name = "closure/ghost/full";
      payload = "not even marshal";
    }

(* ---- daemon state recovery ---- *)

let exec st line =
  match Protocol.parse line with
  | Error m -> Alcotest.failf "parse %S: %s" line m
  | Ok req -> fst (Daemon.execute st req)

let check_prefix name prefix reply =
  if
    not
      (String.length reply >= String.length prefix
      && String.sub reply 0 (String.length prefix) = prefix)
  then Alcotest.failf "%s: expected %S..., got %S" name prefix reply

let durable_config dir =
  {
    Daemon.default_config with
    Daemon.state_dir = Some dir;
    fsync = Journal.Always;
  }

let solve_line = "solve card pat store --sim shingles --xi 0.5"

let test_state_recovery_warm () =
  with_tmpdir (fun dir ->
      let warm_reply =
        let st = Daemon.make_state (durable_config dir) in
        check_prefix "load pat" "ok loaded graph pat"
          (exec st ("load graph pat " ^ fig1_pattern));
        check_prefix "load store" "ok loaded graph store"
          (exec st ("load graph store " ^ fig1_store));
        check_prefix "cold solve" "ok solve problem=CPH" (exec st solve_line);
        let warm = exec st solve_line in
        Alcotest.(check bool) "warm is all hits" true
          (Helpers.count_substring
             ~needle:"cache=closure:hit,mat:hit,cands:hit" warm = 1);
        Daemon.close_state st;
        warm
      in
      (* a second state over the same dir starts warm: same graphs, same
         artifacts, and the very first solve is byte-identical to the
         previous life's warm reply — hits and all *)
      let st2 = Daemon.make_state (durable_config dir) in
      let health = exec st2 "health" in
      check_prefix "recovered ready" "ok health state=ready" health;
      Alcotest.(check bool) "both graphs recovered" true
        (Helpers.count_substring ~needle:"recovered_graphs=2" health = 1);
      Alcotest.(check bool) "artifacts recovered" true
        (Helpers.count_substring ~needle:"recovered_artifacts=0" health = 0);
      Alcotest.(check bool) "nothing quarantined" true
        (Helpers.count_substring ~needle:"quarantined=0" health = 1);
      check_prefix "list recovered" "ok graphs=[pat" (exec st2 "list");
      Alcotest.(check string) "first post-recovery solve byte-identical"
        warm_reply (exec st2 solve_line);
      Daemon.close_state st2)

let test_state_recovery_journal_replay () =
  with_tmpdir (fun dir ->
      (* life 1 loads graphs but never drains: the loads live only in the
         journal (the initial snapshot was empty), as after a kill -9 *)
      let st = Daemon.make_state (durable_config dir) in
      ignore (exec st ("load graph pat " ^ fig1_pattern));
      ignore (exec st ("load graph store " ^ fig1_store));
      ignore (exec st solve_line);
      (* no close_state: simulate the crash by dropping the state *)
      let st2 = Daemon.make_state (durable_config dir) in
      let health = exec st2 "health" in
      check_prefix "recovered ready" "ok health state=ready" health;
      Alcotest.(check bool) "events replayed" true
        (Helpers.count_substring ~needle:"journal_replayed=0" health = 0);
      check_prefix "graphs back" "ok graphs=[pat" (exec st2 "list");
      (* replayed artifact events recomputed the cache: first solve hits *)
      Alcotest.(check bool) "warm after replay" true
        (Helpers.count_substring
           ~needle:"cache=closure:hit,mat:hit,cands:hit"
           (exec st2 solve_line)
        = 1);
      Daemon.close_state st2;
      Daemon.close_state st)

let test_state_recovery_quarantines_corruption () =
  with_tmpdir (fun dir ->
      (let st = Daemon.make_state (durable_config dir) in
       ignore (exec st ("load graph pat " ^ fig1_pattern));
       ignore (exec st ("load graph store " ^ fig1_store));
       ignore (exec st solve_line);
       Daemon.close_state st);
      (* XOR-flip a span of the store graph's payload: a guaranteed byte
         change wherever marshalled artifacts might legitimately hold any
         value *)
      let snap = Filename.concat dir "state.snap" in
      let content = Bytes.of_string (read_file snap) in
      let find_sub s sub =
        let n = String.length s and m = String.length sub in
        let rec go i =
          if i + m > n then Alcotest.failf "%S not found in snapshot" sub
          else if String.sub s i m = sub then i
          else go (i + 1)
        in
        go 0
      in
      let hdr = find_sub (Bytes.to_string content) "record graph store " in
      let pos = 1 + Bytes.index_from content hdr '\n' in
      for k = 0 to 7 do
        Bytes.set content (pos + k)
          (Char.chr (Char.code (Bytes.get content (pos + k)) lxor 0xff))
      done;
      write_file snap (Bytes.to_string content);
      let st2 = Daemon.make_state (durable_config dir) in
      let health = exec st2 "health" in
      (* degraded, counted — but serving *)
      check_prefix "degraded" "ok health state=degraded" health;
      Alcotest.(check bool) "quarantine counted" true
        (Helpers.count_substring ~needle:"quarantined=0" health = 0);
      check_prefix "still serves" "ok phomd" (exec st2 "version");
      (* the quarantined graph is simply absent; the daemon keeps working *)
      ignore (exec st2 ("load graph pat2 " ^ fig1_pattern));
      check_prefix "solve after quarantine" "ok solve problem=CPH"
        (exec st2 "solve card pat2 pat2 --sim shingles --xi 0.5");
      Daemon.close_state st2)

let test_state_dir_unusable_fails_fast () =
  with_tmpdir (fun dir ->
      let file = Filename.concat dir "plain" in
      write_file file "not a directory\n";
      match Daemon.make_state (durable_config (Filename.concat file "sub")) with
      | exception Sys_error _ -> ()
      | _st -> Alcotest.fail "an unusable state dir must fail fast")

let suite =
  [
    ( "persist",
      [
        Alcotest.test_case "crc32 vectors" `Quick test_crc_vectors;
        Alcotest.test_case "snapshot round trip" `Quick test_snapshot_roundtrip;
        Alcotest.test_case "corrupt record quarantined" `Quick
          test_snapshot_corrupt_record_quarantined;
        Alcotest.test_case "torn tail quarantined" `Quick
          test_snapshot_torn_tail_quarantined;
        Alcotest.test_case "write failure stays atomic" `Quick
          test_snapshot_write_failure_atomic;
        Alcotest.test_case "bad record tokens rejected" `Quick
          test_bad_record_tokens_rejected;
        Alcotest.test_case "journal round trip" `Quick test_journal_roundtrip;
        Alcotest.test_case "journal torn tail stops replay" `Quick
          test_journal_torn_tail_stops_replay;
        Alcotest.test_case "journal rotate and append failure" `Quick
          test_journal_rotate_and_append_failure;
        Alcotest.test_case "restore-record defenses" `Quick
          test_restore_record_defenses;
        Alcotest.test_case "state recovery is warm" `Quick
          test_state_recovery_warm;
        Alcotest.test_case "journal-only recovery" `Quick
          test_state_recovery_journal_replay;
        Alcotest.test_case "corruption quarantined, still serves" `Quick
          test_state_recovery_quarantines_corruption;
        Alcotest.test_case "unusable state dir fails fast" `Quick
          test_state_dir_unusable_fails_fast;
        Alcotest.test_case "streaming crc = reference" `Quick
          test_crc_reference;
        Alcotest.test_case "graph signatures = reference" `Quick
          test_signature_reference;
        Alcotest.test_case "edit signatures = reference" `Quick
          test_edit_signature_reference;
      ] );
  ]
