(* The domain pool, and the determinism contract of its batch seam: with a
   pool, results are identical to the sequential ones — same order, same
   verdicts. *)

module Pool = Phom_parallel.Pool

(* a shared pool for the whole suite keeps domain spawning off the hot path;
   size 4 oversubscribes small CI machines, which is exactly the contention
   the determinism claims must survive *)
let pool = lazy (Pool.create ~domains:4 ())

let test_create_validation () =
  Alcotest.check_raises "zero domains"
    (Invalid_argument "Pool.create: domains must be >= 1") (fun () ->
      ignore (Pool.create ~domains:0 ()));
  Pool.with_pool ~domains:1 (fun p ->
      Alcotest.(check int) "size 1" 1 (Pool.size p))

let test_map_order () =
  let p = Lazy.force pool in
  let input = Array.init 100 (fun i -> i) in
  let out = Pool.map p (fun i -> i * i) input in
  Alcotest.(check (array int)) "input order" (Array.map (fun i -> i * i) input) out

let test_map_matches_sequential () =
  let p = Lazy.force pool in
  let input = Array.init 257 (fun i -> i) in
  let f i = (i * 7919) mod 1009 in
  Alcotest.(check (array int))
    "same as Array.map" (Array.map f input) (Pool.map p f input)

let test_map_list () =
  let p = Lazy.force pool in
  let xs = List.init 33 (fun i -> i) in
  Alcotest.(check (list int))
    "order kept" (List.map succ xs)
    (Pool.map_list p succ xs)

let test_map_empty_and_singleton () =
  let p = Lazy.force pool in
  Alcotest.(check (array int)) "empty" [||] (Pool.map p succ [||]);
  Alcotest.(check (array int)) "singleton" [| 2 |] (Pool.map p succ [| 1 |])

let test_exception_lowest_index () =
  let p = Lazy.force pool in
  let input = Array.init 64 (fun i -> i) in
  (* indices 10 and 40 both fail; the re-raised exception must be index
     10's, no matter which domain got there first *)
  Alcotest.check_raises "lowest index wins" (Failure "boom 10") (fun () ->
      ignore
        (Pool.map p
           (fun i -> if i = 10 || i = 40 then failwith (Printf.sprintf "boom %d" i) else i)
           input))

let test_nested_map () =
  (* an inner map issued from inside a pool task must complete even with
     every worker busy: batch callers participate in their own batches *)
  let p = Lazy.force pool in
  let out =
    Pool.map p
      (fun i ->
        Array.fold_left ( + ) 0 (Pool.map p (fun j -> (i * 10) + j) (Array.init 8 Fun.id)))
      (Array.init 16 Fun.id)
  in
  let expected =
    Array.init 16 (fun i ->
        Array.fold_left ( + ) 0 (Array.init 8 (fun j -> (i * 10) + j)))
  in
  Alcotest.(check (array int)) "nested results" expected out

let test_reuse_after_batches () =
  let p = Lazy.force pool in
  for round = 1 to 20 do
    let out = Pool.map p succ (Array.init (round * 3) Fun.id) in
    Alcotest.(check int) "batch size" (round * 3) (Array.length out)
  done

let test_shutdown_degenerates () =
  let p = Pool.create ~domains:2 () in
  Pool.shutdown p;
  Pool.shutdown p;
  (* idempotent *)
  Alcotest.(check (array int)) "still maps" [| 1; 2 |] (Pool.map p succ [| 0; 1 |])

(* ---- seam determinism: parallel ≡ sequential ---- *)

let test_matcher_parallel_equals_sequential () =
  let p = Lazy.force pool in
  let rng = Random.State.make [| 5 |] in
  let spec = List.hd (Phom_web.Dataset.sites (Phom_web.Dataset.Reduced 20)) in
  let pattern, versions =
    Phom_web.Dataset.archive_skeletons ~rng ~versions:5 ~skeleton:(`Alpha 0.2) spec
  in
  List.iter
    (fun m ->
      let seq, _ = Phom_web.Matcher.accuracy m ~pattern ~versions in
      let par, _ = Phom_web.Matcher.accuracy ~pool:p m ~pattern ~versions in
      Alcotest.(check bool)
        (Phom_web.Matcher.method_name m)
        true (seq = par))
    [ Phom_web.Matcher.CompMaxCard; Phom_web.Matcher.CompMaxSim11;
      Phom_web.Matcher.GraphSimulation ]

let suite =
  [
    ( "pool",
      [
        Alcotest.test_case "create validation" `Quick test_create_validation;
        Alcotest.test_case "map keeps input order" `Quick test_map_order;
        Alcotest.test_case "map matches Array.map" `Quick test_map_matches_sequential;
        Alcotest.test_case "map_list" `Quick test_map_list;
        Alcotest.test_case "empty and singleton batches" `Quick test_map_empty_and_singleton;
        Alcotest.test_case "lowest-index exception wins" `Quick test_exception_lowest_index;
        Alcotest.test_case "nested map" `Quick test_nested_map;
        Alcotest.test_case "reuse across batches" `Quick test_reuse_after_batches;
        Alcotest.test_case "shutdown degenerates to sequential" `Quick test_shutdown_degenerates;
      ] );
    ( "parallel_seams",
      [
        Alcotest.test_case "matcher: pool ≡ sequential" `Quick
          test_matcher_parallel_equals_sequential;
      ] );
  ]
