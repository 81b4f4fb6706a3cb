(* The daemon's byte-accounted LRU artifact cache: capacity accounting,
   eviction order, invalidation sweeps, and counter exactness when pool
   workers hit one cache concurrently. *)

module Lru = Phom_server.Lru
module Pool = Phom_parallel.Pool

(* values are (payload, weight) pairs so each test controls byte accounting
   directly *)
let cache ?(capacity = 100) () = Lru.create ~capacity_bytes:capacity ~weight:snd ()

let check_stats name t ~hits ~misses ~evictions ~entries ~bytes =
  let s = Lru.stats t in
  Alcotest.(check int) (name ^ " hits") hits s.Lru.hits;
  Alcotest.(check int) (name ^ " misses") misses s.Lru.misses;
  Alcotest.(check int) (name ^ " evictions") evictions s.Lru.evictions;
  Alcotest.(check int) (name ^ " entries") entries s.Lru.entries;
  Alcotest.(check int) (name ^ " bytes") bytes s.Lru.bytes

let test_basic_hit_miss () =
  let t = cache () in
  Alcotest.(check (option (pair string int))) "empty" None (Lru.find t "a");
  Lru.put t "a" ("A", 10);
  Alcotest.(check (option (pair string int))) "hit" (Some ("A", 10)) (Lru.find t "a");
  check_stats "after one miss one hit" t ~hits:1 ~misses:1 ~evictions:0
    ~entries:1 ~bytes:10

let test_capacity_accounting () =
  let t = cache ~capacity:100 () in
  Lru.put t "a" ("A", 40);
  Lru.put t "b" ("B", 40);
  check_stats "two resident" t ~hits:0 ~misses:0 ~evictions:0 ~entries:2 ~bytes:80;
  (* replacing a key swaps its weight, not adds *)
  Lru.put t "a" ("A2", 10);
  check_stats "replace adjusts bytes" t ~hits:0 ~misses:0 ~evictions:0
    ~entries:2 ~bytes:50;
  Alcotest.(check (option (pair string int))) "replacement visible"
    (Some ("A2", 10)) (Lru.find t "a")

let test_eviction_order () =
  let t = cache ~capacity:100 () in
  Lru.put t "a" ("A", 40);
  Lru.put t "b" ("B", 40);
  (* touch "a" so "b" is now the least recently used *)
  ignore (Lru.find t "a");
  Lru.put t "c" ("C", 40);
  Alcotest.(check bool) "a survived (recently used)" true (Lru.find t "a" <> None);
  Alcotest.(check bool) "b evicted (LRU)" true (Lru.find t "b" = None);
  Alcotest.(check bool) "c resident" true (Lru.find t "c" <> None);
  let s = Lru.stats t in
  Alcotest.(check int) "one eviction" 1 s.Lru.evictions;
  Alcotest.(check int) "bytes fit capacity" 80 s.Lru.bytes

let test_eviction_cascade () =
  let t = cache ~capacity:100 () in
  Lru.put t "a" ("A", 30);
  Lru.put t "b" ("B", 30);
  Lru.put t "c" ("C", 30);
  (* 90 resident; an 80-weight insert leaves room for nothing else, so the
     eviction loop must walk through all three in LRU order *)
  Lru.put t "d" ("D", 80);
  let s = Lru.stats t in
  Alcotest.(check int) "three evictions" 3 s.Lru.evictions;
  Alcotest.(check int) "entries" 1 s.Lru.entries;
  Alcotest.(check int) "bytes" 80 s.Lru.bytes;
  Alcotest.(check bool) "a evicted" true (Lru.find t "a" = None);
  Alcotest.(check bool) "b evicted" true (Lru.find t "b" = None);
  Alcotest.(check bool) "c evicted" true (Lru.find t "c" = None);
  Alcotest.(check bool) "d resident" true (Lru.find t "d" <> None)

let test_oversize_value_not_stored () =
  let t = cache ~capacity:100 () in
  Lru.put t "a" ("A", 40);
  Lru.put t "big" ("BIG", 101);
  Alcotest.(check bool) "oversize absent" true (Lru.find t "big" = None);
  Alcotest.(check bool) "resident untouched" true (Lru.find t "a" <> None);
  let s = Lru.stats t in
  Alcotest.(check int) "no eviction for a value that cannot fit" 0 s.Lru.evictions;
  Alcotest.(check int) "bytes" 40 s.Lru.bytes

let test_remove_if () =
  let t = cache ~capacity:1000 () in
  List.iter (fun k -> Lru.put t k (k, 10)) [ "g1/c"; "g1/m"; "g2/c"; "g2/m" ];
  ignore (Lru.find t "g1/c");
  let dropped = Lru.remove_if t (fun k -> String.length k >= 2 && String.sub k 0 2 = "g1") in
  Alcotest.(check (list string))
    "dropped both g1 artifacts, least recently used first" [ "g1/m"; "g1/c" ]
    (List.map fst dropped);
  let s = Lru.stats t in
  Alcotest.(check int) "entries left" 2 s.Lru.entries;
  Alcotest.(check int) "bytes left" 20 s.Lru.bytes;
  Alcotest.(check int) "invalidation is not eviction" 0 s.Lru.evictions;
  Alcotest.(check bool) "g2 artifacts survive" true (Lru.find t "g2/c" <> None);
  Alcotest.(check int) "no-op sweep" 0 (List.length (Lru.remove_if t (fun _ -> false)))

(* the catalog's artifact pattern: look up, and on a miss compute and put *)
let find_or_put t k =
  match Lru.find t k with
  | Some v -> (v, true)
  | None ->
      let v = (string_of_int k, 1) in
      Lru.put t k v;
      (v, false)

(* counters must stay exact when pool workers hammer one cache: every
   lookup is exactly one hit or one miss, under any interleaving *)
let test_concurrent_counters () =
  let t = cache ~capacity:1_000_000 () in
  let keys = 8 and per_key = 50 in
  Pool.with_pool ~domains:4 (fun pool ->
      let work = Array.init (keys * per_key) (fun i -> i mod keys) in
      let results =
        Pool.map pool
          (fun k ->
            let _, hit = find_or_put t k in
            if hit then 1 else 0)
          work
      in
      let hits = Array.fold_left ( + ) 0 results in
      let s = Lru.stats t in
      (* each call's one find counts one hit or one miss *)
      Alcotest.(check int) "hits + misses = lookups" (keys * per_key)
        (s.Lru.hits + s.Lru.misses);
      Alcotest.(check int) "counter hits match returned hits" hits s.Lru.hits;
      Alcotest.(check int) "all keys resident" keys s.Lru.entries;
      Alcotest.(check bool) "misses >= keys" true (s.Lru.misses >= keys);
      Alcotest.(check int) "no evictions" 0 s.Lru.evictions)

let test_bindings_order () =
  let t = cache ~capacity:1000 () in
  Lru.put t "a" ("A", 10);
  Lru.put t "b" ("B", 10);
  Lru.put t "c" ("C", 10);
  ignore (Lru.find t "a");
  (* the snapshot exporter's view: least-recently-used first, so restoring
     in this order reproduces the recency order *)
  Alcotest.(check (list string)) "LRU-first order" [ "b"; "c"; "a" ]
    (List.map fst (Lru.bindings t));
  let s = Lru.stats t in
  Alcotest.(check int) "bindings counts no hits" 1 s.Lru.hits

(* an invalidation sweep racing concurrent lookups: every lookup must see
   either its own freshly computed value or a resident one for the same
   key — never a value the sweep already removed (resurrection), and the
   byte accounting must stay exact through any interleaving *)
let test_remove_if_racing_lookups () =
  let t = cache ~capacity:1_000_000 () in
  Pool.with_pool ~domains:4 (fun pool ->
      let work = Array.init 400 (fun i -> i) in
      let results =
        Pool.map pool
          (fun i ->
            if i mod 10 = 0 then begin
              ignore (Lru.remove_if t (fun k -> k mod 2 = 0));
              0
            end
            else
              let k = i mod 8 in
              let v, _ = find_or_put t k in
              if fst v = string_of_int k then 0 else 1)
          work
      in
      Alcotest.(check int) "every lookup saw its own key's value" 0
        (Array.fold_left ( + ) 0 results));
  let s = Lru.stats t in
  Alcotest.(check int) "bytes track entries exactly" s.Lru.entries s.Lru.bytes;
  (* a final sweep of everything leaves a consistent empty cache *)
  ignore (Lru.remove_if t (fun _ -> true));
  let s = Lru.stats t in
  Alcotest.(check int) "swept empty" 0 s.Lru.entries;
  Alcotest.(check int) "swept bytes" 0 s.Lru.bytes

let test_negative_capacity_rejected () =
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Lru.create: negative capacity") (fun () ->
      ignore (Lru.create ~capacity_bytes:(-1) ~weight:(fun _ -> 1) ()))

let suite =
  [
    ( "lru",
      [
        Alcotest.test_case "basic hit/miss" `Quick test_basic_hit_miss;
        Alcotest.test_case "capacity accounting" `Quick test_capacity_accounting;
        Alcotest.test_case "eviction order" `Quick test_eviction_order;
        Alcotest.test_case "eviction cascade" `Quick test_eviction_cascade;
        Alcotest.test_case "oversize value not stored" `Quick
          test_oversize_value_not_stored;
        Alcotest.test_case "remove_if invalidation" `Quick test_remove_if;
        Alcotest.test_case "concurrent counters" `Quick test_concurrent_counters;
        Alcotest.test_case "bindings order" `Quick test_bindings_order;
        Alcotest.test_case "remove_if racing lookups" `Quick
          test_remove_if_racing_lookups;
        Alcotest.test_case "negative capacity rejected" `Quick
          test_negative_capacity_rejected;
      ] );
  ]
