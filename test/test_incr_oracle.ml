(* Differential oracle for the dynamic-graph subsystem: seeded random edit
   scripts (addedge/deledge over ER / DAG / series-parallel / planted-SCC
   graphs and paths) where every structure carried across an edit is
   checked byte-for-byte against a from-scratch rebuild after every single
   step — the catalog's cached closures of every hop bound against
   [Bounded_closure.relation] of the edited graph, and the daemon's
   edit+re-solve path against a cold daemon that loaded the edited graph
   from disk for the solve/count replies.

   Metamorphic companions: an add-then-del round trip restores the content
   signature, the cached artifacts and the solve replies exactly; edits
   confined to one weak component never invalidate artifacts whose
   relevant components lie elsewhere; duplicate adds and missing dels are
   clean errors that change nothing. Plus the unload-race regression: a
   solve that pinned its snapshot before an unload/edit still computes
   correct results and cannot resurrect purged cache state. *)

module D = Phom_graph.Digraph
module BM = Phom_graph.Bitmatrix
module BC = Phom_graph.Bounded_closure
module G = Phom_graph.Generators
module IO = Phom_graph.Graph_io
module Catalog = Phom_server.Catalog
module Protocol = Phom_server.Protocol
module Daemon = Phom_server.Daemon
module Pool = Phom_parallel.Pool

let labels i = Printf.sprintf "L%d" (i mod 4)

let gen_graph rng ~family ~n =
  match family with
  | 0 ->
      let m = Random.State.int rng (min (n * (n - 1)) (3 * n) + 1) in
      G.erdos_renyi ~rng ~n ~m ~labels
  | 1 ->
      let m = Random.State.int rng (min (n * (n - 1) / 2) (3 * n) + 1) in
      G.random_dag ~rng ~n ~m ~labels
  | _ -> G.series_parallel ~rng ~n ~labels

let edges_of g =
  let acc = ref [] in
  D.iter_edges (fun u v -> acc := (u, v) :: !acc) g;
  List.rev !acc

(* a random applicable edit: delete an existing edge or add a missing one
   (self-loops included — the closure diagonal is where cycle semantics
   live, so edits must exercise it) *)
let random_edit rng g =
  let n = D.n g in
  let edges = edges_of g in
  let m = List.length edges in
  let pick_add () =
    let rec go tries =
      if tries > 300 then None
      else
        let u = Random.State.int rng n and v = Random.State.int rng n in
        if D.has_edge g u v then go (tries + 1) else Some (`Add, u, v)
    in
    go 0
  in
  let pick_del () =
    if m = 0 then None
    else
      let u, v = List.nth edges (Random.State.int rng m) in
      Some (`Del, u, v)
  in
  if m > 0 && Random.State.bool rng then pick_del ()
  else match pick_add () with Some e -> Some e | None -> pick_del ()

let apply op g u v =
  match op with `Add -> D.add_edge g u v | `Del -> D.remove_edge g u v

(* ---- the closure oracle ---- *)

let save_tmp g =
  let path = Filename.temp_file "phom_incr" ".phg" in
  IO.save path g;
  path

let rm path = try Sys.remove path with Sys_error _ -> ()

let hops_variants = [ None; Some 1; Some 2; Some 3; Some 5 ]

let hops_name = function None -> "full" | Some k -> string_of_int k

let path n =
  D.make ~labels:(Array.init n labels)
    ~edges:(List.init (n - 1) (fun i -> (i, i + 1)))

(* seeds below 240: families 0-2 as [gen_graph]; above, alternately 3:
   planted cycles, self-loops and fans into cycles, and 4: a path of up to
   40 nodes whose first edit deletes its last edge, which changes every row
   of the full closure and the last k rows of a k-hop one. The graph sits
   in a catalog holding its closure for every hop bound; after each edit
   all of them must be carried (a lookup hits) and equal a recompute on
   the edited graph. *)
let closure_script seed =
  let rng = Random.State.make [| 0xC10; seed |] in
  let family = if seed < 240 then seed mod 3 else 3 + (seed mod 2) in
  let n = 5 + Random.State.int rng 8 in
  let g =
    ref
      (match family with
      | 3 -> Helpers.planted_scc_gen ~max_n:30 () rng
      | 4 -> path (n + Random.State.int rng 29)
      | _ -> gen_graph rng ~family ~n)
  in
  let c = Catalog.create () in
  let file = save_tmp !g in
  (match Catalog.load_graph c ~name:"g" ~path:file with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  rm file;
  List.iter
    (fun h -> ignore (Catalog.closure c ~name:"g" ~hops:h))
    hops_variants;
  let steps = 1 + Random.State.int rng 6 in
  for step = 1 to steps do
    let edit =
      if family = 4 && step = 1 then
        let n = D.n !g in
        Some (`Del, n - 2, n - 1)
      else random_edit rng !g
    in
    match edit with
    | None -> ()
    | Some (op, u, v) ->
        let what =
          Printf.sprintf "seed %d step %d (%s %d->%d)" seed step
            (match op with `Add -> "add" | `Del -> "del")
            u v
        in
        let after = apply op !g u v in
        g := after;
        (match Catalog.edit c ~name:"g" ~op ~v:u ~w:v with
        | Error m -> Alcotest.failf "%s: %s" what m
        | Ok r ->
            if r.Catalog.closures <> List.length hops_variants then
              Alcotest.failf "%s: carried %d closures" what r.Catalog.closures);
        List.iter
          (fun h ->
            match Catalog.closure c ~name:"g" ~hops:h with
            | Error m -> Alcotest.failf "%s: %s" what m
            | Ok (m, prov) ->
                if prov <> Catalog.Hit then
                  Alcotest.failf "%s: hops=%s closure was not carried" what
                    (hops_name h);
                if not (BM.equal m (BC.relation ?hops:h after)) then
                  Alcotest.failf "%s: carried hops=%s closure diverges" what
                    (hops_name h))
          hops_variants
  done

let test_closure_scripts lo hi () =
  for seed = lo to hi - 1 do
    closure_script seed
  done

(* ---- the daemon-level solve oracle ---- *)

let exec st line =
  match Protocol.parse line with
  | Error m -> Alcotest.failf "parse %S: %s" line m
  | Ok req -> fst (Daemon.execute st req)

let expect_ok line reply =
  if String.length reply < 2 || String.sub reply 0 2 <> "ok" then
    Alcotest.failf "%S: expected ok, got %S" line reply;
  reply

(* provenance legitimately differs between a warm daemon and a cold rebuild;
   everything before it (the answer) must not *)
let strip_cache reply =
  let marker = " cache=" in
  let n = String.length reply and m = String.length marker in
  let rec find i =
    if i + m > n then reply
    else if String.sub reply i m = marker then String.sub reply 0 i
    else find (i + 1)
  in
  find 0

let solve_lines seed =
  let sim = if seed mod 2 = 0 then "--sim equality" else "--sim shingles" in
  let hops = if seed mod 3 = 0 then " --hops 2" else "" in
  let solves =
    List.map
      (fun p -> Printf.sprintf "solve %s p d %s --xi 0.5%s" p sim hops)
      [ "card"; "card11"; "sim"; "sim11" ]
  in
  solves @ [ Printf.sprintf "count p d %s --xi 0.5%s" sim hops ]

(* one script: a warm daemon absorbs edits in place (carried closures,
   signature-keyed cache, warm-started solves) while the oracle rebuilds a
   cold daemon from the edited graph files; after every step all four
   problems and the count must answer byte-identically *)
let solve_script ?pool seed =
  let rng = Random.State.make [| 0x501E; seed |] in
  let family = seed mod 3 in
  let g1 = ref (gen_graph rng ~family:(seed mod 2) ~n:(4 + Random.State.int rng 3)) in
  let g2 = ref (gen_graph rng ~family ~n:(6 + Random.State.int rng 6)) in
  let p1 = save_tmp !g1 and p2 = save_tmp !g2 in
  let warm = Daemon.make_state ?pool Daemon.default_config in
  ignore (expect_ok "load p" (exec warm (Printf.sprintf "load graph p %s" p1)));
  ignore (expect_ok "load d" (exec warm (Printf.sprintf "load graph d %s" p2)));
  rm p1;
  rm p2;
  let check_against_cold step =
    let q1 = save_tmp !g1 and q2 = save_tmp !g2 in
    let cold = Daemon.make_state ?pool Daemon.default_config in
    ignore (expect_ok "load p" (exec cold (Printf.sprintf "load graph p %s" q1)));
    ignore (expect_ok "load d" (exec cold (Printf.sprintf "load graph d %s" q2)));
    List.iter
      (fun line ->
        let w = strip_cache (expect_ok line (exec warm line)) in
        let c = strip_cache (expect_ok line (exec cold line)) in
        if w <> c then
          Alcotest.failf
            "seed %d step %d %S: warm daemon answered %S but a cold rebuild \
             answered %S"
            seed step line w c)
      (solve_lines seed);
    Daemon.close_state cold;
    rm q1;
    rm q2
  in
  check_against_cold 0;
  let steps = 1 + Random.State.int rng 4 in
  for step = 1 to steps do
    (* mostly edit the data graph; sometimes the pattern *)
    let name, gref =
      if Random.State.int rng 4 = 0 then ("p", g1) else ("d", g2)
    in
    match random_edit rng !gref with
    | None -> ()
    | Some (op, u, v) ->
        gref := apply op !gref u v;
        let verb = match op with `Add -> "addedge" | `Del -> "deledge" in
        ignore
          (expect_ok verb
             (exec warm (Printf.sprintf "%s %s %d %d" verb name u v)));
        check_against_cold step
  done;
  Daemon.close_state warm

let test_solve_scripts lo hi () =
  for seed = lo to hi - 1 do
    solve_script seed
  done

let test_solve_scripts_pooled lo hi () =
  Pool.with_pool ~domains:2 (fun pool ->
      for seed = lo to hi - 1 do
        solve_script ~pool seed
      done)

(* ---- metamorphic: add-then-del is a perfect undo ---- *)

let fig1_pattern = Filename.concat "../data" "fig1_pattern.phg"
let fig1_store = Filename.concat "../data" "fig1_store.phg"

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let test_add_then_del_restores () =
  let st = Daemon.make_state Daemon.default_config in
  ignore
    (expect_ok "load" (exec st (Printf.sprintf "load graph p %s" fig1_pattern)));
  ignore
    (expect_ok "load" (exec st (Printf.sprintf "load graph d %s" fig1_store)));
  let line = "solve card p d --sim shingles --xi 0.5" in
  let before = strip_cache (expect_ok line (exec st line)) in
  (* warm the closure cache, then round-trip an edge *)
  let r1 = expect_ok "addedge" (exec st "addedge d 0 5") in
  Alcotest.(check bool) "add applied" true (contains r1 "applied=1");
  let r2 = expect_ok "deledge" (exec st "deledge d 0 5") in
  Alcotest.(check bool) "del applied" true (contains r2 "applied=1");
  (* the undo restored the content, so the original signature — and with
     it every cached artifact key — is live again: the solve must hit *)
  let restored = expect_ok line (exec st line) in
  Alcotest.(check string) "solve output restored exactly" before
    (strip_cache restored);
  Alcotest.(check bool) "candidate artifact resurrected (hit)" true
    (contains restored "cands:hit")

let test_undo_restores_signature () =
  let c = Catalog.create () in
  (match Catalog.load_graph c ~name:"d" ~path:fig1_store with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let sig0 =
    match Catalog.pin c "d" with
    | Ok p -> p.Catalog.pin_sig
    | Error m -> Alcotest.fail m
  in
  let r =
    match Catalog.edit c ~name:"d" ~op:`Add ~v:1 ~w:0 with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check bool) "edit changes the signature" false (r.Catalog.crc = sig0);
  (match Catalog.edit c ~name:"d" ~op:`Del ~v:1 ~w:0 with
  | Ok r2 ->
      Alcotest.(check string) "undo restores the signature byte-for-byte" sig0
        r2.Catalog.crc
  | Error m -> Alcotest.fail m);
  (* and the CRC-idempotent form: re-sending the del with the restored
     signature acknowledges without applying *)
  match Catalog.edit ~expect_crc:sig0 c ~name:"d" ~op:`Del ~v:1 ~w:0 with
  | Ok r3 -> Alcotest.(check bool) "replayed edit is a no-op" false r3.Catalog.applied
  | Error m -> Alcotest.fail m

(* ---- metamorphic: cross-component isolation ---- *)

(* two weak components with disjoint label alphabets; the pattern can only
   land in component A, so edits inside component B must leave the
   candidate artifact warm (its pair signature only covers relevant
   components) and the answers untouched *)
let two_component_graph () =
  (* nodes 0-2: component A labelled a; nodes 3-6: component B labelled b *)
  D.make
    ~labels:(Array.init 7 (fun i -> if i < 3 then "a" else "b"))
    ~edges:[ (0, 1); (1, 2); (3, 4); (4, 5); (5, 6); (6, 3) ]

let one_node_pattern () = D.make ~labels:[| "a"; "a" |] ~edges:[ (0, 1) ]

let test_cross_component_isolation () =
  let gpath = save_tmp (two_component_graph ()) in
  let ppath = save_tmp (one_node_pattern ()) in
  let st = Daemon.make_state Daemon.default_config in
  ignore (expect_ok "load" (exec st (Printf.sprintf "load graph p %s" ppath)));
  ignore (expect_ok "load" (exec st (Printf.sprintf "load graph d %s" gpath)));
  rm gpath;
  rm ppath;
  let line = "solve card p d --xi 0.75" in
  let before = expect_ok line (exec st line) in
  (* edit strictly inside component B (labels "b": unmatchable at any ξ>0
     under label equality against an all-"a" pattern) *)
  ignore (expect_ok "deledge" (exec st "deledge d 6 3"));
  let after = expect_ok line (exec st line) in
  Alcotest.(check string) "answers agree" (strip_cache before)
    (strip_cache after);
  Alcotest.(check bool)
    "candidate artifact of the untouched components stays warm" true
    (contains after "cands:hit");
  (* a control: editing the relevant component must invalidate *)
  ignore (expect_ok "addedge" (exec st "addedge d 2 0"));
  let third = expect_ok line (exec st line) in
  Alcotest.(check bool) "relevant-component edit recomputes" true
    (contains third "cands:miss")

(* ---- metamorphic: invalid edits change nothing ---- *)

let test_invalid_edits_are_inert () =
  let st = Daemon.make_state Daemon.default_config in
  ignore
    (expect_ok "load" (exec st (Printf.sprintf "load graph d %s" fig1_store)));
  let c_before = exec st "list" in
  let sig_before = expect_ok "addedge" (exec st "addedge d 0 5") in
  (* duplicate add: a clean error *)
  let dup = exec st "addedge d 0 5" in
  Alcotest.(check bool) "duplicate add is an error" true
    (String.length dup >= 5 && String.sub dup 0 5 = "error");
  Alcotest.(check bool) "names the edge" true (contains dup "0->5");
  (* missing del: a clean error *)
  let missing = exec st "deledge d 5 0" in
  Alcotest.(check bool) "missing del is an error" true
    (String.length missing >= 5 && String.sub missing 0 5 = "error");
  (* out-of-range endpoint: a clean error *)
  let oob = exec st "addedge d 0 99" in
  Alcotest.(check bool) "out-of-range is an error" true
    (String.length oob >= 5 && String.sub oob 0 5 = "error");
  Alcotest.(check bool) "mentions the range" true (contains oob "out of range");
  (* a matrix is not editable *)
  ignore c_before;
  (* none of the failures changed the state: re-sending the successful
     edit's signature acknowledges it as still current *)
  let crc =
    let marker = " crc=" in
    let n = String.length sig_before in
    let rec find i =
      if i + 5 > n then Alcotest.fail "edit reply carries crc="
      else if String.sub sig_before i 5 = marker then
        let stop = ref (i + 5) in
        let () =
          while !stop < n && sig_before.[!stop] <> ' ' do
            incr stop
          done
        in
        String.sub sig_before (i + 5) (!stop - i - 5)
      else find (i + 1)
    in
    find 0
  in
  let noop = expect_ok "crc replay" (exec st ("addedge d 0 5 --crc " ^ crc)) in
  Alcotest.(check bool) "state unchanged by failed edits" true
    (contains noop "applied=0")

let test_edit_unknown_and_mat () =
  let st = Daemon.make_state Daemon.default_config in
  let unknown = exec st "addedge nope 0 1" in
  Alcotest.(check bool) "unknown graph is an error" true
    (String.length unknown >= 5 && String.sub unknown 0 5 = "error");
  ignore
    (expect_ok "load" (exec st (Printf.sprintf "load graph d %s" fig1_store)));
  let m = Filename.concat "../data" "fig1_mate.phs" in
  ignore (expect_ok "load" (exec st (Printf.sprintf "load mat mm %s" m)));
  let matedit = exec st "addedge mm 0 1" in
  Alcotest.(check bool) "editing a matrix is an error" true
    (contains matedit "similarity matrix")

(* ---- the unload/edit race regression ----

   A solve pins its snapshot at prepare; an unload (or edit) that lands
   before the job runs must neither crash the job, nor let it read the
   replacement state, nor let it resurrect cache entries for the purged
   name. *)

let test_unload_race_pinned_solve () =
  let c = Catalog.create () in
  (match Catalog.load_graph c ~name:"d" ~path:fig1_store with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let pin = match Catalog.pin c "d" with Ok p -> p | Error m -> Alcotest.fail m in
  (* the catalog entry vanishes while the "job" still holds the pin *)
  (match Catalog.unload c "d" with Ok _ -> () | Error m -> Alcotest.fail m);
  let m1, prov = Catalog.closure_pinned c ~pin ~hops:None in
  Alcotest.(check bool) "computes from the snapshot" true
    (prov = Catalog.Miss);
  Alcotest.(check bool) "correct closure" true
    (BM.equal m1 (BC.relation pin.Catalog.pin_graph));
  (* the generation barrier refused the insertion: nothing of the purged
     graph is resurrected in the cache *)
  Alcotest.(check int) "no resurrection" 0 (Helpers.probe "phom_cache_entries");
  (* reload different content under the same name: the old pin's keys are
     signature-distinct, so the stale snapshot cannot poison the new one *)
  (match Catalog.load_graph c ~name:"d" ~path:fig1_pattern with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let pin2 = match Catalog.pin c "d" with Ok p -> p | Error m -> Alcotest.fail m in
  Alcotest.(check bool) "replacement has its own signature" false
    (pin.Catalog.pin_sig = pin2.Catalog.pin_sig);
  let _, prov2 = Catalog.closure_pinned c ~pin:pin2 ~hops:None in
  Alcotest.(check bool) "new content computes fresh" true (prov2 = Catalog.Miss);
  (* the probe that read 0 above reads [c]: its one closure shows now *)
  Alcotest.(check int) "probe reads this catalog" 1
    (Helpers.probe "phom_cache_entries")

let test_edit_race_pinned_solve () =
  let c = Catalog.create () in
  (match Catalog.load_graph c ~name:"d" ~path:fig1_store with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let pin = match Catalog.pin c "d" with Ok p -> p | Error m -> Alcotest.fail m in
  (* an edit lands between prepare and job *)
  (match Catalog.edit c ~name:"d" ~op:`Add ~v:0 ~w:5 with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  (* the pinned job still answers for the graph it was asked about (the
     pre-edit snapshot), not the mutated one *)
  let m1, _ = Catalog.closure_pinned c ~pin ~hops:None in
  Alcotest.(check bool) "pre-edit closure" true
    (BM.equal m1 (BC.relation pin.Catalog.pin_graph));
  (* and its cache entry went in under the pre-edit signature, so a fresh
     pin of the edited graph misses instead of reading the stale matrix *)
  let pin2 = match Catalog.pin c "d" with Ok p -> p | Error m -> Alcotest.fail m in
  let m2, prov2 = Catalog.closure_pinned c ~pin:pin2 ~hops:None in
  Alcotest.(check bool) "post-edit pin recomputes" true (prov2 = Catalog.Miss);
  Alcotest.(check bool) "post-edit closure is the edited graph's" true
    (BM.equal m2 (BC.relation pin2.Catalog.pin_graph))

(* every cached closure, full and hop-bounded, is carried across an edit:
   re-keyed under the new signature (a fresh pin hits it) and equal to a
   recompute on the edited graph *)
let test_edit_carries_every_closure () =
  let c = Catalog.create () in
  (match Catalog.load_graph c ~name:"d" ~path:fig1_store with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  let pin () =
    match Catalog.pin c "d" with Ok p -> p | Error m -> Alcotest.fail m
  in
  let hops = [ None; Some 1; Some 2; Some 3 ] in
  let p0 = pin () in
  List.iter (fun h -> ignore (Catalog.closure_pinned c ~pin:p0 ~hops:h)) hops;
  List.iter
    (fun (op, verb) ->
      match Catalog.edit c ~name:"d" ~op ~v:0 ~w:5 with
      | Error m -> Alcotest.fail m
      | Ok r ->
          Alcotest.(check int) (verb ^ " carries four closures") 4
            r.Catalog.closures;
          let p = pin () in
          List.iter
            (fun h ->
              let m, prov = Catalog.closure_pinned c ~pin:p ~hops:h in
              let what = Printf.sprintf "%s hops=%s" verb (hops_name h) in
              Alcotest.(check bool) (what ^ ": a fresh pin hits") true
                (prov = Catalog.Hit);
              Alcotest.(check bool) (what ^ ": equals a recompute") true
                (BM.equal m (BC.relation ?hops:h p.Catalog.pin_graph)))
            hops)
    [ (`Add, "addedge"); (`Del, "deledge") ]

(* a cached full closure crosses an edit one of two ways: as the same
   matrix, re-keyed, when the edit cannot change G⁺, or rebuilt when it
   does. Seeded scripts over the closure scripts' families must take both
   ways, and take each exactly when it is right: the matrix is carried as
   it is iff it already equals the edited graph's closure, and whatever
   crosses equals [Bounded_closure.relation] of the edited graph. *)
let test_full_closure_branches () =
  let rekeyed = ref 0 and rebuilt = ref 0 in
  for seed = 0 to 99 do
    let rng = Random.State.make [| 0xB4A; seed |] in
    let n = 4 + Random.State.int rng 10 in
    let g =
      ref
        (match seed mod 4 with
        | 3 -> path (n + Random.State.int rng 20)
        | family -> gen_graph rng ~family ~n)
    in
    let c = Catalog.create () in
    let file = save_tmp !g in
    (match Catalog.load_graph c ~name:"g" ~path:file with
    | Ok _ -> ()
    | Error m -> Alcotest.fail m);
    rm file;
    let full () =
      match Catalog.closure c ~name:"g" ~hops:None with
      | Ok (m, _) -> m
      | Error m -> Alcotest.fail m
    in
    for step = 1 to 8 do
      match random_edit rng !g with
      | None -> ()
      | Some (op, u, v) ->
          let what = Printf.sprintf "seed %d step %d" seed step in
          let before = full () in
          g := apply op !g u v;
          (match Catalog.edit c ~name:"g" ~op ~v:u ~w:v with
          | Ok r when r.Catalog.closures = 1 -> ()
          | Ok r -> Alcotest.failf "%s: carried %d closures" what r.Catalog.closures
          | Error m -> Alcotest.failf "%s: %s" what m);
          let after = full () and expected = BC.relation !g in
          if not (BM.equal after expected) then
            Alcotest.failf "%s: carried full closure diverges" what;
          let same = after == before in
          if same then incr rekeyed else incr rebuilt;
          if same <> BM.equal before expected then
            Alcotest.failf "%s: %s a closure the edit %s" what
              (if same then "re-keyed" else "rebuilt")
              (if same then "changed" else "left unchanged")
    done
  done;
  if !rekeyed = 0 || !rebuilt = 0 then
    Alcotest.failf "full closures re-keyed %d times and rebuilt %d times"
      !rekeyed !rebuilt

let chunk name lo hi f =
  Alcotest.test_case (Printf.sprintf "%s %d..%d" name lo (hi - 1)) `Slow (f lo hi)

let oracle_tests =
  [
    chunk "closure scripts" 0 60 test_closure_scripts;
    chunk "closure scripts" 60 120 test_closure_scripts;
    chunk "closure scripts" 120 180 test_closure_scripts;
    chunk "closure scripts" 180 240 test_closure_scripts;
    chunk "closure scripts" 240 320 test_closure_scripts;
    chunk "closure scripts" 320 400 test_closure_scripts;
    chunk "edit+re-solve vs cold rebuild" 0 20 test_solve_scripts;
    chunk "edit+re-solve vs cold rebuild" 20 40 test_solve_scripts;
    chunk "edit+re-solve vs cold rebuild (pooled)" 40 60
      test_solve_scripts_pooled;
  ]

let metamorphic_tests =
  [
    Alcotest.test_case "add-then-del restores solve output and cache" `Quick
      test_add_then_del_restores;
    Alcotest.test_case "add-then-del restores the content signature" `Quick
      test_undo_restores_signature;
    Alcotest.test_case "edits isolate across weak components" `Quick
      test_cross_component_isolation;
    Alcotest.test_case "duplicate add / missing del are inert errors" `Quick
      test_invalid_edits_are_inert;
    Alcotest.test_case "unknown names and matrices are not editable" `Quick
      test_edit_unknown_and_mat;
    Alcotest.test_case "unload cannot corrupt a pinned in-flight solve" `Quick
      test_unload_race_pinned_solve;
    Alcotest.test_case "edit cannot corrupt a pinned in-flight solve" `Quick
      test_edit_race_pinned_solve;
    Alcotest.test_case "an edit carries every cached closure" `Quick
      test_edit_carries_every_closure;
    Alcotest.test_case "full closures re-keyed iff unchanged" `Quick
      test_full_closure_branches;
  ]

let suite =
  [ ("incr_oracle", oracle_tests); ("incr_metamorphic", metamorphic_tests) ]
