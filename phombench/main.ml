(* The repository benchmark: one served workload against the real phomd.

     bash phombench/run.sh --workload W --seed N --seconds S --trace 0|1

   --trace 0 (timed run): phomd is started as a child on a Unix socket
   with --jobs 2, set up five times (spawn → ready, every load, the
   warm-up pass; the median is setup_s), taken through the workload's
   lead-in, then driven as a closed loop over one connection for S
   seconds. Every reply is checked against the
   in-process oracle afterwards. The last stdout line is the result JSON
   carrying the end-to-end metrics.

   --trace 1 (traced run): the same workload's requests are replayed
   in-process through the daemon's own calls with a span around each
   layer, then untraced through Daemon.execute, then over the socket; the
   last line carries the per-layer metrics. README.md maps each layer
   metric to the end-to-end metric it should move. *)

open Phombench
module W = Workload
module S = Served
module D = Phom_graph.Digraph
module Daemon = Phom_server.Daemon
module Protocol = Phom_server.Protocol
module Journal = Phom_server.Journal
module Pool = Phom_parallel.Pool

let now = Unix.gettimeofday
let setups = 5
(* the layers must add up to the untraced request within this share *)
let residual_bound = 0.10
let default_timeout = 5.  (* phomd's default per-request budget, kept as users get it *)
let say fmt = Printf.printf (fmt ^^ "\n%!")

(* ---- files ---- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* the daemon only ever sees these generated files *)
let write_inputs (wl : W.t) dir =
  List.map
    (fun (name, g) ->
      let path = Filename.concat dir (name ^ ".phg") in
      Phom_graph.Graph_io.save path g;
      (name, path))
    wl.W.graphs
  @ List.map
      (fun (name, m) ->
        let path = Filename.concat dir (name ^ ".phs") in
        Phom_sim.Simmat.save path m;
        (name, path))
      wl.W.mats

let load_lines (wl : W.t) files =
  List.map (fun (n, _) -> Printf.sprintf "load graph %s %s" n (List.assoc n files)) wl.W.graphs
  @ List.map (fun (n, _) -> Printf.sprintf "load mat %s %s" n (List.assoc n files)) wl.W.mats

let expect_ok what reply =
  if not (Reply.parse reply).Reply.ok then failwith (what ^ " failed: " ^ reply)

(* ---- set-up ---- *)

type setup = {
  d : S.daemon;
  c : S.conn;
  seconds : float;
  reference : float;  (** {!Calib.seconds} just before *)
  warm : (W.step * string) list;
}

let ask c = List.map (fun (s : W.step) -> (s, S.request c s.W.line))

let daemon_args (wl : W.t) dir i =
  [ "--cache-mb"; string_of_int wl.W.cache_mb ]
  @
  if wl.W.state_dir then
    [ "--state-dir"; Filename.concat dir (Printf.sprintf "state%d" i); "--fsync"; "never" ]
  else []

let setup ~phomd (wl : W.t) ~dir ~files i =
  let reference = Calib.seconds () in
  let t0 = now () in
  let socket = Filename.concat dir (Printf.sprintf "s%d.sock" i) in
  let d = S.spawn ~phomd ~socket (daemon_args wl dir i) in
  let c = S.connect d.S.socket in
  List.iter (fun l -> expect_ok l (S.request c l)) (load_lines wl files);
  let warm = ask c wl.W.warmup in
  { d; c; seconds = now () -. t0; reference; warm }

(* ---- the closed loop ---- *)

type record = {
  step : W.step;
  sent : float;
  recv : float;
  reply : string option;
  reference : float;  (** the latest {!Calib.seconds} before the request *)
}

(* how often the loop times the reference work: often enough to follow the
   machine's changes of speed, seldom enough to cost a few per cent *)
let reference_every = 0.1

(* one connection, each request sent only after the reply to the previous
   one, so a request's round trip is its own and never a wait behind
   another. Nothing new is sent after [seconds]; a request that gets no
   reply ends the loop.

   Between requests, every [reference_every] seconds, the loop times the
   reference work, outside the requests' own times. Before each block of
   [wl.period] requests it reads the daemon's CPU time ([cpu]); besides
   the records it returns those readings, one per block begun and one at
   the end. *)
let closed_loop (wl : W.t) c ~cpu ~seconds =
  let deadline = now () +. seconds in
  let cpus = ref [] and reference = ref 0. and measured = ref neg_infinity in
  let rec go i acc =
    if now () >= deadline then List.rev acc
    else begin
      if i mod wl.W.period = 0 then cpus := cpu () :: !cpus;
      if now () -. !measured >= reference_every then begin
        reference := Calib.seconds ();
        measured := now ()
      end;
      let step = W.nth wl i in
      let sent = now () in
      (* far beyond the daemon's own per-request budget *)
      let reply =
        try Some (S.send c step.W.line; S.read_line ~timeout:60. c)
        with Failure _ | End_of_file | Unix.Unix_error _ -> None
      in
      let r = { step; sent; recv = now (); reply; reference = !reference } in
      if reply = None then List.rev (r :: acc) else go (i + 1) (r :: acc)
    end
  in
  let records = go 0 [] in
  let cpus = cpu () :: !cpus in
  (records, Array.of_list (List.rev cpus))

(* ---- reporting ---- *)

type metric = { name : string; unit : string; value : float }

let json_of_result ~correct ~attempted ~failed metrics =
  let item m = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map item metrics))

let print_metrics title ms =
  say "%s" title;
  List.iter (fun m -> say "  %-34s %14.6f %s" m.name m.value m.unit) ms

let is_solve (s : W.step) = match s.W.op with W.Query { problem = Some _; _ } -> true | _ -> false
let is_count (s : W.step) = match s.W.op with W.Query { problem = None; _ } -> true | _ -> false
let is_edit (s : W.step) = match s.W.op with W.Toggle _ -> true | _ -> false

let stat_delta s0 s1 name = S.stat s1 name -. S.stat s0 name

let series s name = Option.value ~default:0. (List.assoc_opt name s)

let stats_report s0 s1 =
  let d n = stat_delta s0 s1 n in
  let span_count n = series s1 n -. series s0 n in
  say "daemon stats deltas (counts):";
  say "  cache hits %.0f, misses %.0f, evictions %.0f; budget steps %.0f; journal events %.0f"
    (d "phom_cache_hits_total") (d "phom_cache_misses_total") (d "phom_cache_evictions_total")
    (d "phom_span_budget_steps_total") (d "phom_journal_events_total");
  say "  pool submit wait: %.0f jobs, %.6f s total; engine spans: dp %.0f, exact (B&B) %.0f, count %.0f"
    (d "phom_pool_submit_wait_seconds_count") (d "phom_pool_submit_wait_seconds_sum")
    (span_count "phom_span_seconds_count{span=\"dp\"}")
    (span_count "phom_span_seconds_count{span=\"exact\"}")
    (span_count "phom_span_seconds_count{span=\"count\"}")

(* the workload's shape: sizes, artifact working set against the cache,
   and the request mix actually sent *)
let shape_report ~seed (wl : W.t) steps =
  say "workload %s, seed %d" wl.W.name seed;
  List.iter (fun (n, g) -> say "  graph %-8s n=%-5d edges=%d" n (D.n g) (D.nb_edges g)) wl.W.graphs;
  List.iter
    (fun (n, m) -> say "  mat   %-8s %dx%d" n (Phom_sim.Simmat.n1 m) (Phom_sim.Simmat.n2 m))
    wl.W.mats;
  let graph n = List.assoc n wl.W.graphs in
  let queries =
    List.sort_uniq compare
      (List.filter_map (fun (s : W.step) -> match s.W.op with W.Query q -> Some q | _ -> None) steps)
  in
  let data = List.sort_uniq compare (List.map (fun (q : W.query) -> q.W.g2) queries) in
  let closure_bytes = List.fold_left (fun a n -> let k = D.n (graph n) in a + (k * k / 8)) 0 data in
  let sim_pairs =
    List.sort_uniq compare
      (List.filter_map
         (fun (q : W.query) -> match q.W.sim with W.Mat _ -> None | _ -> Some (q.W.g1, q.W.g2))
         queries)
  in
  let sim_bytes =
    List.fold_left (fun a (g1, g2) -> a + (8 * D.n (graph g1) * D.n (graph g2))) 0 sim_pairs
  in
  say "  artifact working set: closures %.2f MiB + similarity matrices %.2f MiB vs --cache-mb %d"
    (float_of_int closure_bytes /. 1048576.) (float_of_int sim_bytes /. 1048576.) wl.W.cache_mb;
  let tally key =
    let h = Hashtbl.create 8 in
    List.iter
      (fun s ->
        let k = key s in
        Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k)))
      steps;
    String.concat ", "
      (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n)
         (List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) h [])))
  in
  say "  mix: %s"
    (tally (fun (s : W.step) ->
         match s.W.op with
         | W.Toggle { add; _ } -> if add then "addedge" else "deledge"
         | W.Query { problem = None; _ } -> "count"
         | W.Query { problem = Some p; exact; _ } ->
             Phom_server.Protocol.problem_token p ^ if exact then "/exact" else "/direct"));
  (* the exact tier's route is decided by the pattern's decomposition width *)
  let exact_solves =
    List.filter_map
      (fun (s : W.step) ->
        match s.W.op with W.Query ({ problem = Some _; exact = true; _ } as q) -> Some q | _ -> None)
      steps
  in
  if exact_solves <> [] then
    say "  exact solves by route (width <= 4 -> DP): %s"
      (tally (fun (s : W.step) ->
           match s.W.op with
           | W.Query { problem = Some _; exact = true; g1; _ } ->
               let w = Phom_treedecomp.Treedecomp.width (graph g1) in
               Printf.sprintf "%s(width %d)" (if w <= 4 then "dp" else "bb") w
           | _ -> "other"))

(* ---- timed run ---- *)

(* whole blocks a run needs before its throughput is reported *)
let min_blocks = 5

(* throughput as the median over whole blocks: every [wl.period]
   consecutive requests are the same work, so a block's time varies only
   with the machine, and the median sets aside the blocks a burst of
   outside load slowed. A block's time is the sum of its requests' round
   trips, each scaled by [scale]. *)
let block_rate (wl : W.t) ~scale records problems =
  let a = Array.of_list records in
  let p = wl.W.period in
  let n = Array.length a / p in
  if n < min_blocks then begin
    problems :=
      Printf.sprintf "req_per_s needs %d whole blocks of %d requests, the run gave %d" min_blocks p n
      :: !problems;
    Float.nan
  end
  else
    let times =
      List.init n (fun b ->
          let t = ref 0. in
          for i = b * p to ((b + 1) * p) - 1 do
            t := !t +. ((a.(i).recv -. a.(i).sent) *. scale a.(i))
          done;
          !t)
    in
    float_of_int p /. Stats.median times

(* a solve's kind: the same kind is the same work every time *)
let solve_kind (s : W.step) =
  match s.W.op with
  | W.Query { problem = Some p; g1; g2; exact; _ } -> Some (p, g1, g2, exact)
  | _ -> None

(* solve latency as the geometric mean over the solve kinds of each kind's
   median round trip: the kinds weigh alike whatever their share of the
   window, so the figure does not step between kinds as the mix shifts.
   Each round trip is scaled by [scale]. *)
let solve_ms ~scale records problems =
  let by_kind = Hashtbl.create 64 in
  List.iter
    (fun r ->
      match solve_kind r.step with
      | Some k ->
          Hashtbl.replace by_kind k
            (((r.recv -. r.sent) *. scale r) :: Option.value ~default:[] (Hashtbl.find_opt by_kind k))
      | None -> ())
    records;
  let medians = Hashtbl.fold (fun _ xs acc -> (Stats.median xs *. 1000.) :: acc) by_kind [] in
  if medians = [] then begin
    problems := "solve_ms: no solves in the window" :: !problems;
    Float.nan
  end
  else exp (Stats.mean (List.map log medians))

let timed ~phomd ~seed ~seconds (wl : W.t) ~dir ~files =
  (* every set-up but the last is torn down before the next starts *)
  let runs =
    List.init setups (fun i ->
        let r = setup ~phomd wl ~dir ~files i in
        if i < setups - 1 then begin
          S.close r.c;
          S.stop r.d
        end;
        r)
  in
  let last = List.nth runs (setups - 1) in
  let lead = ask last.c wl.W.lead_in in
  let s0 = S.stats last.c in
  let records, cpus =
    closed_loop wl last.c ~cpu:(fun () -> S.cpu_seconds last.d) ~seconds
  in
  let s1 = S.stats last.c in
  let rss = S.peak_rss_mb last.d in
  S.close last.c;
  S.stop last.d;
  (* the oracle runs after the window, with the daemon gone *)
  let oracle = Oracle.create wl ~files in
  let failures = ref [] in
  let check (step : W.step) reply =
    match reply with
    | None -> Error ("no reply to " ^ step.W.line)
    | Some r -> (
        match Oracle.check oracle step r with
        | Ok () -> Ok ()
        | Error e -> Error (step.W.line ^ " -> " ^ e))
  in
  List.iter
    (fun r ->
      List.iter
        (fun (s, reply) ->
          match check s (Some reply) with
          | Ok () -> ()
          | Error e -> failures := e :: !failures)
        r)
    (lead :: List.map (fun r -> r.warm) runs);
  let passed =
    List.map
      (fun r ->
        match check r.step r.reply with
        | Ok () -> true
        | Error e ->
            failures := e :: !failures;
            false)
      records
  in
  let attempted = List.length records in
  let failed = List.length (List.filter not passed) in
  let lat pred =
    List.filter_map
      (fun r -> if pred r.step then Some (r.recv -. r.sent) else None)
      records
  in
  let problems = ref [] in
  let solves = lat is_solve in
  (* every timing at the reference machine's speed (Calib), each scaled
     by the reference measured next to it; [raw] gives them as measured,
     for the report *)
  let e2e ~raw problems =
    let scale r = if raw then 1. else Calib.scale r.reference in
    let a = Array.of_list records and p = wl.W.period in
    (* a block's CPU time is scaled by its requests' mean scale *)
    let block_cpu b =
      let s = ref 0. in
      for i = b * p to ((b + 1) * p) - 1 do
        s := !s +. scale a.(i)
      done;
      (cpus.(b + 1) -. cpus.(b)) *. !s /. float_of_int p
    in
    [
      {
        name = "setup_s";
        unit = "s";
        value =
          Stats.median
            (List.map
               (fun r -> r.seconds *. if raw then 1. else Calib.scale r.reference)
               runs);
      };
      { name = "req_per_s"; unit = "1/s"; value = block_rate wl ~scale records problems };
      { name = "solve_ms"; unit = "ms"; value = solve_ms ~scale records problems };
      {
        name = "cpu_ms_per_req";
        unit = "ms";
        value =
          Stats.median (List.init (attempted / p) block_cpu) *. 1000. /. float_of_int p;
      };
      { name = "rss_mb"; unit = "MiB"; value = rss };
    ]
  in
  let measured = e2e ~raw:true (ref []) in
  let e2e = e2e ~raw:false problems in
  (* printed only where the workload has the samples the tail rule needs *)
  let optional name p xs =
    match Stats.percentile ~p (List.map (fun s -> s *. 1000.) xs) with
    | Ok value -> [ { name; unit = "ms"; value } ]
    | Error _ -> []
  in
  let extra =
    optional "solve_p50_ms" 0.50 solves
    @ optional "solve_p90_ms" 0.90 solves
    @ optional "solve_p95_ms" 0.95 solves
    @ optional "solve_p99_ms" 0.99 solves
    @ optional "count_p50_ms" 0.50 (lat is_count)
    @ optional "edit_p50_ms" 0.50 (lat is_edit)
    @ optional "edit_p99_ms" 0.99 (lat is_edit)
    @ [
        {
          name = "fail_frac";
          unit = "ratio";
          value = float_of_int failed /. float_of_int (max 1 attempted);
        };
      ]
  in
  shape_report ~seed wl (List.map (fun r -> r.step) records);
  let carries_miss r =
    match r.reply with
    | Some l -> List.exists (fun (_, p) -> p = "miss") (Reply.cache (Reply.parse l))
    | None -> false
  in
  let miss = List.length (List.filter carries_miss records) in
  say "  replies carrying a cache miss: %d of %d" miss attempted;
  say "  set-ups (s): %s"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.4f" r.seconds) runs));
  stats_report s0 s1;
  let refs = List.map (fun r -> 1000. *. r.reference) records in
  say "reference work: median %.4f ms (%.4f-%.4f) over the window; timings below are scaled to %.1f ms"
    (Stats.median refs)
    (List.fold_left Float.min infinity refs)
    (List.fold_left Float.max 0. refs)
    Calib.reference_ms;
  print_metrics "as measured (closed loop, 1 connection, phomd --jobs 2):" measured;
  print_metrics "end-to-end, at the reference machine's speed:" e2e;
  print_metrics "also measured, unscaled (not every workload has them):" extra;
  List.iter (fun e -> say "FAILED %s" e) (List.rev !failures);
  List.iter (fun e -> say "UNSUPPORTED %s" e) !problems;
  let correct = !failures = [] && !problems = [] && attempted > 0 in
  (correct, attempted, failed, e2e)

(* ---- traced run ---- *)

let traced ~phomd ~seed ~seconds (wl : W.t) ~dir ~files =
  let su = setup ~phomd wl ~dir ~files 0 in
  List.iter (fun ((s : W.step), r) -> expect_ok s.W.line r) (ask su.c wl.W.lead_in);
  let pool = Pool.create ~domains:2 () in
  let cache_bytes = wl.W.cache_mb * 1024 * 1024 in
  (* A: the traced catalog; B: an untraced daemon state; both warmed like
     the child daemon, so all three start from the same state *)
  let journal =
    if wl.W.state_dir then begin
      let jdir = Filename.concat dir "trace-journal" in
      mkdir_p jdir;
      match Journal.open_append ~path:(Filename.concat jdir "state.journal") ~fsync:Journal.Never with
      | Ok j -> Some j
      | Error e -> failwith e
    end
    else None
  in
  let a = Trace.create ~pool ~cache_mb:wl.W.cache_mb ~timeout:default_timeout ~journal in
  let b =
    Daemon.make_state ~pool
      {
        Daemon.default_config with
        Daemon.jobs = 2;
        cache_bytes;
        fsync = Journal.Never;
        state_dir = (if wl.W.state_dir then Some (Filename.concat dir "trace-state") else None);
      }
  in
  let exec line =
    match Protocol.parse line with Ok req -> fst (Daemon.execute b req) | Error e -> "error " ^ e
  in
  List.iter
    (fun l ->
      expect_ok l (Trace.run a ~id:(-1) l);
      expect_ok l (exec l))
    (load_lines wl files);
  List.iter
    (fun (s : W.step) ->
      ignore (Trace.run a ~id:(-1) s.W.line);
      ignore (exec s.W.line))
    (wl.W.warmup @ wl.W.lead_in);
  let pings =
    List.init 200 (fun _ ->
        let t = now () in
        expect_ok "ping" (S.request su.c "ping");
        now () -. t)
  in
  (* each request runs three ways back to back — traced in-process,
     untraced through Daemon.execute, and over the socket — rotating which
     goes first, so machine noise lands on all three alike. All three
     states apply the same requests in the same order. *)
  let timed f =
    let t = now () in
    let r = f () in
    (now () -. t, r)
  in
  let s0 = S.stats su.c in
  let t0 = now () in
  let rows = ref [] and n = ref 0 in
  while now () -. t0 < seconds do
    let s = W.nth wl !n in
    let traced () =
      Trace.recording := true;
      let r = Trace.run a ~id:!n s.W.line in
      Trace.recording := false;
      r
    in
    let untraced () = timed (fun () -> exec s.W.line) in
    let socket () = timed (fun () -> S.request su.c s.W.line) in
    let row =
      match !n mod 3 with
      | 0 ->
          let x = traced () in
          let y = untraced () in
          (x, y, socket ())
      | 1 ->
          let y = untraced () in
          let z = socket () in
          (traced (), y, z)
      | _ ->
          let z = socket () in
          let x = traced () in
          (x, untraced (), z)
    in
    rows := row :: !rows;
    incr n
  done;
  let s1 = S.stats su.c in
  let n = !n in
  let rows = List.rev !rows in
  let steps = List.init n (W.nth wl) in
  let traced_replies = List.map (fun (x, _, _) -> x) rows in
  let untraced = List.map (fun (_, y, _) -> y) rows in
  let socket = List.map (fun (_, _, z) -> z) rows in
  S.close su.c;
  S.stop su.d;
  Daemon.close_state b;
  Option.iter Journal.close journal;
  Pool.shutdown pool;
  (* every route's answers against the oracle *)
  let oracle = Oracle.create wl ~files in
  let failures = ref [] in
  let check route (s : W.step) reply =
    match Oracle.check oracle s reply with
    | Ok () -> true
    | Error e ->
        failures := Printf.sprintf "%s: %s -> %s" route s.W.line e :: !failures;
        false
  in
  let results =
    List.concat
      [
        List.map2 (check "traced") steps traced_replies;
        List.map2 (fun s (_, r) -> check "execute" s r) steps untraced;
        List.map2 (fun s (_, r) -> check "socket" s r) steps socket;
      ]
  in
  (* ---- per-layer numbers from the spans ---- *)
  let spans = Trace.all () in
  let self = Trace.self_times spans in
  let roots = Array.make n 0. and layers = Array.make n 0. in
  let by_name = Hashtbl.create 32 in
  Array.iteri
    (fun i (sp : Trace.span) ->
      if sp.Trace.req >= 0 && sp.Trace.req < n then begin
        if sp.Trace.parent < 0 then roots.(sp.Trace.req) <- sp.Trace.stop -. sp.Trace.start
        else begin
          layers.(sp.Trace.req) <- layers.(sp.Trace.req) +. self.(i);
          Hashtbl.replace by_name sp.Trace.name
            (self.(i) +. Option.value ~default:0. (Hashtbl.find_opt by_name sp.Trace.name))
        end
      end)
    spans;
  let total name = Option.value ~default:0. (Hashtbl.find_opt by_name name) in
  let infos = List.filter_map (fun i -> Hashtbl.find_opt a.Trace.infos i) (List.init n Fun.id) in
  let of_kind k = List.filter (fun (i : Trace.info) -> i.Trace.kind = k) infos in
  let solves = of_kind `Solve and counts = of_kind `Count and edits = of_kind `Edit in
  let queries = solves @ counts in
  let per xs v = v /. float_of_int (max 1 (List.length xs)) in
  let hit_ratio artifact xs =
    let hits, all =
      List.fold_left
        (fun (h, a) (i : Trace.info) ->
          match List.assoc_opt artifact i.Trace.provenance with
          | Some Phom_server.Catalog.Hit -> (h + 1, a + 1)
          | Some _ -> (h, a + 1)
          | None -> (h, a))
        (0, 0) xs
    in
    if all = 0 then 0. else float_of_int hits /. float_of_int all
  in
  let engine = total "engine.solve" in
  let sumf f (xs : Trace.info list) = List.fold_left (fun acc x -> acc +. f x) 0. xs in
  let of_engine f = sumf f solves /. Float.max engine 1e-9 in
  let request_total = Array.fold_left ( +. ) 0. roots in
  let untraced_total = List.fold_left (fun acc (t, _) -> acc +. t) 0. untraced in
  let exact = List.filter (fun (i : Trace.info) -> i.Trace.route <> `Direct) solves in
  let route r = List.length (List.filter (fun (i : Trace.info) -> i.Trace.route = r) solves) in
  (* how far the layers' self times fall short of (or exceed) the same
     requests run untraced through Daemon.execute: per request, and over
     the whole replay *)
  let residuals =
    List.mapi (fun i (t, _) -> Float.abs (t -. layers.(i)) /. t) untraced
  in
  let layers_total = Array.fold_left ( +. ) 0. layers in
  let residual_total = (untraced_total -. layers_total) /. untraced_total in
  let overheads = List.map2 (fun (st, _) (ut, _) -> (st -. ut) *. 1000.) socket untraced in
  let journal_per_edit =
    let edit_ids = Hashtbl.create 16 in
    Array.iteri
      (fun i (sp : Trace.span) ->
        if sp.Trace.name = "catalog.edit" then Hashtbl.replace edit_ids i ())
      spans;
    Array.fold_left
      (fun acc (sp : Trace.span) ->
        if sp.Trace.name = "journal.append" && Hashtbl.mem edit_ids sp.Trace.parent
        then acc + 1
        else acc)
      0 spans
  in
  let graph_io_ms =
    List.map
      (fun (name, _) ->
        let t = now () in
        ignore (Phom_graph.Graph_io.load (List.assoc name files));
        (now () -. t) *. 1000.)
      wl.W.graphs
  in
  let d name = stat_delta s0 s1 name in
  let ms x = x *. 1000. and us x = x *. 1e6 in
  let m name unit value = { name; unit; value } in
  let layer =
    [
      m "protocol.parse_us" "us" (us (per steps (total "protocol.parse")));
      m "transport.ping_rtt_us" "us" (us (Stats.median pings));
      m "transport.rtt_overhead_ms" "ms" (Stats.median overheads);
      m "pool.queue_wait_ms" "ms"
        (ms
           (d "phom_pool_submit_wait_seconds_sum"
           /. Float.max 1. (d "phom_pool_submit_wait_seconds_count")));
      m "catalog.pin_us" "us" (us (per queries (total "catalog.pin")));
      m "catalog.closure_ms" "ms" (ms (per queries (total "catalog.closure")));
      m "catalog.closure_hit_ratio" "ratio" (hit_ratio "closure" queries);
      m "catalog.similarity_ms" "ms" (ms (per queries (total "catalog.similarity")));
      m "catalog.similarity_hit_ratio" "ratio" (hit_ratio "mat" queries);
      m "instance.make_ms" "ms" (ms (per queries (total "instance.make")));
      m "catalog.candidates_ms" "ms" (ms (per queries (total "catalog.candidates")));
      m "catalog.candidates_hit_ratio" "ratio" (hit_ratio "cands" queries);
      m "warm.repair_ms" "ms" (ms (per solves (total "warm.repair")));
      m "engine.solve_ms" "ms" (ms (per solves engine));
      m "engine.dp_share" "ratio" (of_engine (fun i -> i.Trace.dp_seconds));
      m "engine.bb_share" "ratio" (of_engine (fun i -> i.Trace.bb_seconds));
      m "engine.steps_per_solve" "count"
        (per solves (sumf (fun i -> float_of_int i.Trace.steps) solves));
      m "engine.dp_route_frac" "ratio" (per exact (float_of_int (route `Dp)));
      m "engine.count_share" "ratio" (total "engine.count" /. request_total);
      m "catalog.count_hit_ratio" "ratio" (hit_ratio "count" counts);
      m "catalog.edit_share" "ratio" ((total "catalog.edit" +. total "journal.append") /. request_total);
      m "incremental.closures_per_edit" "count"
        (per edits (sumf (fun i -> float_of_int i.Trace.closures) edits));
      m "journal.events_per_edit" "count" (per edits (float_of_int journal_per_edit));
      m "lru.evictions_per_req" "count" (d "phom_cache_evictions_total" /. float_of_int (max 1 n));
      m "lru.bytes" "bytes" (series s1 "phom_cache_bytes");
      m "graph_io.load_ms" "ms" (Stats.mean graph_io_ms);
      m "trace.residual_frac" "ratio" residual_total;
      m "trace.overhead_frac" "ratio" ((request_total -. untraced_total) /. untraced_total);
      m "stats.cache_hits" "count" (d "phom_cache_hits_total");
      m "stats.cache_misses" "count" (d "phom_cache_misses_total");
      m "stats.cache_evictions" "count" (d "phom_cache_evictions_total");
      m "stats.budget_steps" "count" (d "phom_span_budget_steps_total");
      m "stats.journal_events" "count" (d "phom_journal_events_total");
      m "trace.requests" "count" (float_of_int n);
    ]
  in
  shape_report ~seed wl steps;
  say "  traced solves by route: direct %d, dp %d, dp then B&B (1-1 fallback) %d, B&B %d"
    (route `Direct) (route `Dp) (route `Dp_bb) (route `Bb);
  stats_report s0 s1;
  say "layer self time per request (traced, ms): %s"
    (String.concat ", "
       (List.map
          (fun (k, v) -> Printf.sprintf "%s %.4f" k (ms v /. float_of_int (max 1 n)))
          (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []))));
  say "layers vs untraced Daemon.execute: residual %.2f%% over the replay, median per request %.2f%% \
       (stated bound: %.0f%% over the replay)%s; tracing overhead %.2f%%"
    (100. *. residual_total) (100. *. Stats.median residuals) (100. *. residual_bound)
    (if Float.abs residual_total > residual_bound then " EXCEEDED" else "")
    (100. *. (request_total -. untraced_total) /. untraced_total);
  print_metrics "per-layer:" layer;
  let spans_file =
    Filename.concat (Filename.dirname dir) (Printf.sprintf "trace-%s-%d.tsv" wl.W.name seed)
  in
  Trace.write_tsv spans_file spans;
  say "spans written to %s" spans_file;
  List.iter (fun e -> say "FAILED %s" e) (List.rev !failures);
  let failed = List.length (List.filter not results) in
  (!failures = [], List.length results, failed, layer)

(* ---- main ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 and phomd = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" W.names);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 timed run (end-to-end) or traced run (per layer)");
      ("--phomd", Arg.Set_string phomd, "PATH the daemon binary");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "phombench: one served workload against phomd";
  if !phomd = "" || not (Sys.file_exists !phomd) then failwith "--phomd must name the built daemon";
  let wl = W.make ~seed:!seed !workload in
  let dir = Filename.concat ".bench_work" (Printf.sprintf "%s-%d" wl.W.name (Unix.getpid ())) in
  mkdir_p dir;
  let finish () =
    S.kill_all ();
    rm_rf dir
  in
  (* a caller that gives up on the run (a signal, a closed stdout) must
     not leave daemons or scratch files behind *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun signal ->
      Sys.set_signal signal
        (Sys.Signal_handle
           (fun _ ->
             finish ();
             exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  let correct, attempted, failed, metrics =
    Fun.protect ~finally:finish (fun () ->
        let files = write_inputs wl dir in
        if !trace = 1 then traced ~phomd:!phomd ~seed:!seed ~seconds:!seconds wl ~dir ~files
        else timed ~phomd:!phomd ~seed:!seed ~seconds:!seconds wl ~dir ~files)
  in
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  let metrics =
    List.map (fun m -> if Float.is_finite m.value then m else { m with value = 0. }) metrics
  in
  print_endline (json_of_result ~correct:(correct && finite) ~attempted ~failed metrics)
