(* The observability layer: registry semantics, the lock-free hot paths
   under real domain parallelism, and the daemon's stats reply agreeing
   exactly with per-reply cache provenance (both read the same atomics). *)

module Obs = Phom_obs.Obs
module Pool = Phom_parallel.Pool
module Lru = Phom_server.Lru
module Daemon = Phom_server.Daemon
module Protocol = Phom_server.Protocol

let fig1_pattern = Filename.concat "../data" "fig1_pattern.phg"
let fig1_store = Filename.concat "../data" "fig1_store.phg"

(* ---- registry semantics ---- *)

let test_counter () =
  let c = Obs.counter "test_obs_counter_total" in
  let before = Obs.counter_value c in
  Obs.incr c;
  Obs.incr c;
  Obs.add c 5;
  Obs.add c (-3);
  (* counters are monotonic: negative deltas are dropped *)
  Alcotest.(check int) "incr/add, negatives ignored" (before + 7)
    (Obs.counter_value c);
  (* same name + labels = same instrument *)
  Obs.incr (Obs.counter "test_obs_counter_total");
  Alcotest.(check int) "registry returns the same cell" (before + 8)
    (Obs.counter_value c);
  (* distinct labels = distinct instrument *)
  let c' = Obs.counter ~labels:[ ("k", "v") ] "test_obs_counter_total" in
  Alcotest.(check int) "labels split the series" 0 (Obs.counter_value c')

let test_gauge () =
  let g = Obs.gauge "test_obs_gauge" in
  Obs.set_gauge g 10;
  Obs.add_gauge g (-4);
  Obs.add_gauge g 1;
  Alcotest.(check int) "set/add in both directions" 7 (Obs.gauge_value g)

let test_histogram () =
  let h = Obs.histogram ~buckets:[| 0.1; 1.0; 10.0 |] "test_obs_hist" in
  List.iter (Obs.observe h) [ 0.05; 0.5; 5.0; 100.0 ];
  Alcotest.(check int) "count" 4 (Obs.histogram_count h);
  Alcotest.(check (float 1e-6)) "sum" 105.55 (Obs.histogram_sum h);
  (* nearest-rank over bucket upper bounds *)
  Alcotest.(check (float 1e-9)) "p50" 1.0 (Obs.quantile h 0.5);
  Alcotest.(check bool) "p99 overflows to +Inf" true
    (Obs.quantile h 0.99 = Float.infinity);
  let empty = Obs.histogram ~buckets:[| 1.0 |] "test_obs_hist_empty" in
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Obs.quantile empty 0.5))

let test_disabled () =
  let c = Obs.counter "test_obs_disabled_total" in
  let h = Obs.histogram "test_obs_disabled_hist" in
  Obs.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled true)
    (fun () ->
      Obs.incr c;
      Obs.add c 7;
      Obs.observe h 0.5);
  Alcotest.(check int) "disabled counter unmoved" 0 (Obs.counter_value c);
  Alcotest.(check int) "disabled histogram unmoved" 0 (Obs.histogram_count h)

let test_probe_replaced () =
  Obs.register_probe "test_obs_probe" (fun () -> 1.0);
  Obs.register_probe "test_obs_probe" (fun () -> 2.0);
  let line =
    List.find
      (fun l -> String.length l >= 14 && String.sub l 0 14 = "test_obs_probe")
      (Obs.dump_lines ())
  in
  (* re-registration re-points the probe — fresh daemon states rely on it *)
  Alcotest.(check string) "latest registration wins" "test_obs_probe 2" line

let test_dump_parseable () =
  let lines = Obs.dump_lines () in
  Alcotest.(check bool) "non-empty" true (lines <> []);
  List.iter
    (fun l ->
      match String.rindex_opt l ' ' with
      | None -> Alcotest.failf "metric line without a value: %S" l
      | Some i -> (
          let v = String.sub l (i + 1) (String.length l - i - 1) in
          match float_of_string_opt v with
          | Some _ -> ()
          | None -> Alcotest.failf "unparseable value %S in %S" v l))
    lines;
  (* dumping twice without recording is stable, so dumps are diffable *)
  Alcotest.(check bool) "dump is deterministic" true
    (Obs.dump_lines () = lines);
  (* at least the span family from earlier suites must be present *)
  Alcotest.(check bool) "span family present" true
    (List.exists
       (fun l -> Helpers.contains_substring ~needle:"phom_span_seconds" l)
       lines)

(* ---- hot paths under domain parallelism ---- *)

let test_domains_hammer () =
  let c = Obs.counter "test_obs_hammer_total" in
  let h = Obs.histogram ~buckets:[| 0.5 |] "test_obs_hammer_seconds" in
  let domains = 4 and tasks = 8 and per_task = 10_000 in
  Pool.with_pool ~domains (fun pool ->
      ignore
        (Pool.map pool
           (fun _ ->
             for _ = 1 to per_task do
               Obs.incr c;
               Obs.observe h 0.25
             done)
           (Array.init tasks Fun.id)));
  let n = tasks * per_task in
  Alcotest.(check int) "no lost counter updates" n (Obs.counter_value c);
  Alcotest.(check int) "no lost observations" n (Obs.histogram_count h);
  (* 0.25 is exact in the 1e-6 fixed-point sum: the total must be exact *)
  Alcotest.(check (float 1e-6)) "exact fixed-point sum"
    (0.25 *. float_of_int n)
    (Obs.histogram_sum h)

(* ---- daemon stats vs reply provenance ---- *)

let exec st line =
  match Protocol.parse line with
  | Error m -> Alcotest.failf "parse %S: %s" line m
  | Ok req -> fst (Daemon.execute st req)

let count_needle needle s = Helpers.count_substring ~needle s

let metric_value = Helpers.metric_value

let test_daemon_stats_agree () =
  let st = Daemon.make_state Daemon.default_config in
  ignore (exec st ("load graph pat " ^ fig1_pattern));
  ignore (exec st ("load graph store " ^ fig1_store));
  let solves =
    [
      "solve card pat store --sim shingles --xi 0.5";
      "solve card pat store --sim shingles --xi 0.5";
      "solve sim pat store --sim shingles --xi 0.5";
      "solve card11 pat store --sim shingles --xi 0.6";
    ]
  in
  let replies = List.map (exec st) solves in
  let hits = List.fold_left (fun a r -> a + count_needle ":hit" r) 0 replies in
  let misses =
    List.fold_left (fun a r -> a + count_needle ":miss" r) 0 replies
  in
  Alcotest.(check bool) "the run exercises both outcomes" true
    (hits > 0 && misses > 0);
  let reply = exec st "stats" in
  match String.split_on_char '\n' reply with
  | [] -> Alcotest.fail "empty stats reply"
  | header :: body ->
      Alcotest.(check string) "header counts the body"
        (Printf.sprintf "ok stats %d" (List.length body))
        header;
      (* the cache family reads the same atomics provenance increments,
         so the agreement is exact, not approximate *)
      Alcotest.(check int) "hits agree with provenance" hits
        (metric_value body "phom_cache_hits_total");
      Alcotest.(check int) "misses agree with provenance" misses
        (metric_value body "phom_cache_misses_total");
      Alcotest.(check int) "no evictions in this run" 0
        (metric_value body "phom_cache_evictions_total");
      Alcotest.(check int) "catalog gauges are live" 2
        (metric_value body "phom_catalog_graphs");
      (* the requests probe samples mid-request: the stats request itself
         is already counted *)
      Alcotest.(check int) "requests probe is the live field"
        (Daemon.requests_served st)
        (metric_value body "phom_daemon_requests_total")

(* ---- Lru accessors and stats copy the same cells ---- *)

let test_lru_single_source () =
  let cache = Lru.create ~capacity_bytes:64 ~weight:(fun _ -> 24) () in
  ignore (Lru.find cache "a");
  (* miss *)
  Lru.put cache "a" ();
  ignore (Lru.find cache "a");
  (* hit *)
  Lru.put cache "b" ();
  Lru.put cache "c" ();
  (* 3 * 24 > 64: evicts *)
  ignore (Lru.find cache "b");
  let s = Lru.stats cache in
  Alcotest.(check int) "hits" (Lru.hits cache) s.Lru.hits;
  Alcotest.(check int) "misses" (Lru.misses cache) s.Lru.misses;
  Alcotest.(check int) "evictions" (Lru.evictions cache) s.Lru.evictions;
  Alcotest.(check int) "two hits" 2 (Lru.hits cache);
  Alcotest.(check int) "one miss" 1 (Lru.misses cache);
  Alcotest.(check int) "one eviction" 1 (Lru.evictions cache)

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "counter" `Quick test_counter;
        Alcotest.test_case "gauge" `Quick test_gauge;
        Alcotest.test_case "histogram" `Quick test_histogram;
        Alcotest.test_case "disabled registry records nothing" `Quick
          test_disabled;
        Alcotest.test_case "probe re-registration re-points" `Quick
          test_probe_replaced;
        Alcotest.test_case "dump is parseable" `Quick test_dump_parseable;
        Alcotest.test_case "domains hammer one counter" `Quick
          test_domains_hammer;
        Alcotest.test_case "daemon stats agree with provenance" `Quick
          test_daemon_stats_agree;
        Alcotest.test_case "Lru counters are the single source" `Quick
          test_lru_single_source;
      ] );
  ]
