(* Unit tests for the unified resource-budget token, plus the deterministic
   fault-injection grid of the robustness harness: every solver is driven
   over a grid of trip points and must (a) return a valid result, (b) never
   raise, and (c) improve monotonically as the trip point grows. *)

open Helpers
module Budget = Phom_graph.Budget
module BC = Phom_graph.Bounded_closure
module U = Phom_wis.Ungraph
module Wis = Phom_wis.Wis
module Exact = Phom.Exact
module CMC = Phom.Comp_max_card
module CMS = Phom.Comp_max_sim
module Naive = Phom.Naive
module Ull = Phom_baselines.Ullmann
module Mcs = Phom_baselines.Mcs
module Ged = Phom_baselines.Ged
module Sim = Phom_baselines.Simulation

(* ---- token semantics ---- *)

let test_trip_after_exact_count () =
  let b = Budget.trip_after 5 in
  for i = 1 to 5 do
    Alcotest.(check bool) (Printf.sprintf "tick %d ok" i) true (Budget.tick b)
  done;
  Alcotest.(check bool) "tick 6 trips" false (Budget.tick b);
  Alcotest.(check int) "5 steps consumed" 5 (Budget.steps_used b);
  Alcotest.(check bool) "why = steps" true (Budget.why b = Some Budget.Steps);
  (* sticky: trips forever, consuming nothing further *)
  Alcotest.(check bool) "still tripped" false (Budget.tick b);
  Alcotest.(check int) "steps frozen" 5 (Budget.steps_used b)

let test_trip_after_zero () =
  let b = Budget.trip_after 0 in
  Alcotest.(check bool) "first tick trips" false (Budget.tick b);
  Alcotest.(check bool) "exhausted" true (Budget.exhausted b)

let test_unlimited () =
  let b = Budget.unlimited () in
  for _ = 1 to 10_000 do
    assert (Budget.tick b)
  done;
  Alcotest.(check bool) "never exhausted" false (Budget.exhausted b);
  Alcotest.(check bool) "status complete" true (Budget.status b = Budget.Complete)

let test_deadline_trips () =
  (* anchor in 1970: the deadline is long past, so the very first tick
     (a power of two, hence a poll point) must notice *)
  let b = Budget.create ~anchor:0. ~timeout:1.0 () in
  Alcotest.(check bool) "first tick trips" false (Budget.tick b);
  Alcotest.(check bool) "why = deadline" true (Budget.why b = Some Budget.Deadline)

let test_deadline_busy_loop () =
  (* a real (tiny) deadline: busy-tick until it trips; the 10⁸ cap only
     exists so a regression fails instead of hanging *)
  let b = Budget.create ~timeout:0.001 () in
  let safety = ref 100_000_000 in
  while Budget.tick b && !safety > 0 do
    decr safety
  done;
  Alcotest.(check bool) "tripped before safety cap" true (!safety > 0);
  Alcotest.(check bool) "why = deadline" true (Budget.why b = Some Budget.Deadline)

let test_cancel () =
  let b = Budget.create () in
  Alcotest.(check bool) "runs" true (Budget.tick b);
  Budget.cancel b;
  Alcotest.(check bool) "tripped" false (Budget.tick b);
  Alcotest.(check bool) "why = cancelled" true (Budget.why b = Some Budget.Cancelled);
  (* an earlier trip reason wins *)
  let b2 = Budget.trip_after 0 in
  ignore (Budget.tick b2);
  Budget.cancel b2;
  Alcotest.(check bool) "steps reason kept" true (Budget.why b2 = Some Budget.Steps)

let test_cancel_hook () =
  let flag = ref false in
  let b = Budget.create ~cancel:(fun () -> !flag) () in
  Alcotest.(check bool) "runs while flag unset" true (Budget.poll b);
  flag := true;
  Alcotest.(check bool) "poll notices" false (Budget.poll b);
  Alcotest.(check bool) "why = cancelled" true (Budget.why b = Some Budget.Cancelled)

let test_create_validation () =
  Alcotest.check_raises "negative timeout" (Invalid_argument "Budget.create: negative timeout")
    (fun () -> ignore (Budget.create ~timeout:(-1.) ()));
  Alcotest.check_raises "negative steps" (Invalid_argument "Budget.create: negative steps")
    (fun () -> ignore (Budget.create ~steps:(-5) ()));
  Alcotest.check_raises "negative trip point"
    (Invalid_argument "Budget.trip_after: negative trip point") (fun () ->
      ignore (Budget.trip_after (-1)))

let test_strings () =
  Alcotest.(check string) "complete" "complete" (Budget.string_of_status Budget.Complete);
  Alcotest.(check string) "exhausted" "exhausted (steps)"
    (Budget.string_of_status (Budget.Exhausted Budget.Steps));
  Alcotest.(check string) "deadline" "deadline" (Budget.string_of_reason Budget.Deadline)

(* ---- the fault-injection grid ---- *)

let trip_points = [ 0; 1; 2; 4; 8; 16; 32; 64; 128; 512; 4096 ]

(* two deterministic instances: a sparse labelled one where matches exist,
   and a denser single-label one that makes searches branch *)
let grid_instances =
  let mk seed n1 m1 n2 m2 labels =
    let rng = Random.State.make [| seed |] in
    let g1 = Phom_graph.Generators.erdos_renyi ~rng ~n:n1 ~m:m1 ~labels in
    let g2 = Phom_graph.Generators.erdos_renyi ~rng ~n:n2 ~m:m2 ~labels in
    eq_instance ~xi:0.5 g1 g2
  in
  [
    mk 7 5 8 9 20 (fun i -> [| "A"; "B"; "C" |].(i mod 3));
    mk 23 6 12 8 24 (fun _ -> "x");
  ]

(* Drive [run : Budget.t -> float] over the grid. [run] must assert validity
   of its own result and return its quality; this checks no-raise and
   monotonicity, and that no truncated run beats the unbudgeted one. *)
let check_grid name ~unbudgeted run =
  let prev = ref neg_infinity in
  List.iter
    (fun n ->
      let q =
        try run (Budget.trip_after n)
        with e ->
          Alcotest.failf "%s: raised %s at trip point %d" name (Printexc.to_string e) n
      in
      if q < !prev -. 1e-9 then
        Alcotest.failf "%s: quality dropped from %g to %g at trip point %d" name
          !prev q n;
      if q > unbudgeted +. 1e-9 then
        Alcotest.failf "%s: truncated run (%g at %d) beats unbudgeted run (%g)"
          name q n unbudgeted;
      prev := max !prev q)
    trip_points

let size_q m = float_of_int (Phom.Mapping.size m)

let test_grid_comp_max_card () =
  List.iteri
    (fun i t ->
      List.iter
        (fun injective ->
          let run b =
            let m = CMC.run ~injective ~budget:b t in
            check_valid ~injective t m;
            Instance.qual_card t m
          in
          check_grid
            (Printf.sprintf "compMaxCard inst%d inj=%b" i injective)
            ~unbudgeted:(Instance.qual_card t (CMC.run ~injective t))
            run)
        [ false; true ])
    grid_instances

let test_grid_comp_max_sim () =
  List.iteri
    (fun i t ->
      let weights =
        Array.init (Phom_graph.Digraph.n t.Instance.g1) (fun v ->
            float_of_int (1 + (v mod 3)))
      in
      let run b =
        let m = CMS.run ~weights ~budget:b t in
        check_valid t m;
        Instance.qual_sim ~weights t m
      in
      check_grid
        (Printf.sprintf "compMaxSim inst%d" i)
        ~unbudgeted:(Instance.qual_sim ~weights t (CMS.run ~weights t))
        run)
    grid_instances

let test_grid_naive () =
  List.iteri
    (fun i t ->
      let run b =
        let m = Naive.max_card ~budget:b t in
        check_valid t m;
        Instance.qual_card t m
      in
      check_grid
        (Printf.sprintf "naive inst%d" i)
        ~unbudgeted:(Instance.qual_card t (Naive.max_card t))
        run)
    grid_instances

let test_grid_exact () =
  List.iteri
    (fun i t ->
      List.iter
        (fun injective ->
          let unbudgeted =
            (Exact.solve ~injective ~objective:Exact.Cardinality t).Exact.mapping
          in
          let run b =
            let o = Exact.solve ~injective ~budget:b ~objective:Exact.Cardinality t in
            check_valid ~injective t o.Exact.mapping;
            (match o.Exact.status with
            | Budget.Complete -> ()
            | Budget.Exhausted r ->
                Alcotest.(check bool)
                  "exhausted for steps" true (r = Budget.Steps));
            Instance.qual_card t o.Exact.mapping
          in
          check_grid
            (Printf.sprintf "exact inst%d inj=%b" i injective)
            ~unbudgeted:(Instance.qual_card t unbudgeted) run)
        [ false; true ])
    grid_instances

let test_grid_greedy_via_run_on () =
  (* drives Greedy.run through the per-tree entry point, with capacities *)
  List.iteri
    (fun i t ->
      let run b =
        let m = CMC.run_on ~budget:b (Phom.Matching_list.(of_candidates (universe t))) in
        check_valid t m;
        Instance.qual_card t m
      in
      check_grid
        (Printf.sprintf "greedy/run_on inst%d" i)
        ~unbudgeted:
          (Instance.qual_card t (CMC.run_on (Phom.Matching_list.(of_candidates (universe t)))))
        run)
    grid_instances

let test_grid_wis () =
  let g =
    let rng = Random.State.make [| 31 |] in
    let n = 14 in
    let edges = ref [] in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Random.State.float rng 1.0 < 0.4 then edges := (u, v) :: !edges
      done
    done;
    U.create n !edges
  in
  let run_clique b =
    let c = Wis.max_clique ~budget:b g in
    Alcotest.(check bool) "is clique" true (U.is_clique g c);
    float_of_int (List.length c)
  in
  check_grid "wis/is_removal"
    ~unbudgeted:(float_of_int (List.length (Wis.max_clique g)))
    run_clique;
  let run_is b =
    let s = Wis.max_independent_set ~budget:b g in
    Alcotest.(check bool) "is independent" true (U.is_independent g s);
    float_of_int (List.length s)
  in
  check_grid "wis/clique_removal"
    ~unbudgeted:(float_of_int (List.length (Wis.max_independent_set g)))
    run_is;
  let run_exact b =
    let c, _status = Wis.exact_max_clique ~budget:b g in
    Alcotest.(check bool) "exact is clique" true (U.is_clique g c);
    float_of_int (List.length c)
  in
  check_grid "wis/exact_max_clique"
    ~unbudgeted:(float_of_int (List.length (fst (Wis.exact_max_clique g))))
    run_exact

let test_grid_ullmann () =
  List.iteri
    (fun i t ->
      let g1 = t.Instance.g1 and g2 = t.Instance.g2 in
      let run b =
        match Ull.find ~budget:b g1 g2 with
        | Ull.Found m ->
            Alcotest.(check bool) "embedding" true (Ull.is_embedding g1 g2 m);
            size_q m
        | Ull.Not_found_ -> float_of_int (Phom_graph.Digraph.n g1)
        | Ull.Gave_up m ->
            Alcotest.(check bool)
              "partial embedding" true
              (Ull.is_partial_embedding g1 g2 m);
            size_q m
      in
      (* size of the deepest partial embedding grows with budget; a full
         answer (Found/Not_found_) counts as n1 *)
      check_grid
        (Printf.sprintf "ullmann inst%d" i)
        ~unbudgeted:(float_of_int (Phom_graph.Digraph.n g1))
        run)
    grid_instances

let test_grid_mcs () =
  List.iteri
    (fun i t ->
      let g1 = t.Instance.g1 and g2 = t.Instance.g2 in
      let reference =
        match Mcs.run ~budget:(Budget.trip_after (List.fold_left max 0 trip_points)) g1 g2 with
        | Mcs.Completed m | Mcs.Timed_out m -> Mcs.quality g1 m
      in
      let run b =
        let m =
          match Mcs.run ~budget:b g1 g2 with
          | Mcs.Completed m | Mcs.Timed_out m -> m
        in
        Alcotest.(check bool)
          "common subgraph" true
          (Mcs.is_common_subgraph g1 g2 m);
        Mcs.quality g1 m
      in
      check_grid (Printf.sprintf "mcs inst%d" i) ~unbudgeted:reference run)
    grid_instances

let test_grid_ged () =
  List.iteri
    (fun i t ->
      let g1 = t.Instance.g1 and g2 = t.Instance.g2 in
      let run b =
        let s = Ged.similarity ~budget:b g1 g2 in
        Alcotest.(check bool) "in [0,1]" true (s >= 0. && s <= 1.);
        s
      in
      check_grid (Printf.sprintf "ged inst%d" i) ~unbudgeted:(Ged.similarity g1 g2) run)
    grid_instances

(* simulation refines downward: a bigger budget can only shrink the
   relation, and every truncated relation contains the exact one *)
let test_grid_simulation () =
  List.iteri
    (fun i t ->
      let g1 = t.Instance.g1 and g2 = t.Instance.g2 in
      List.iter
        (fun engine ->
          let exact = Sim.compute ~engine g1 g2 in
          let total sim =
            Array.fold_left (fun acc s -> acc + Phom_graph.Bitset.count s) 0 sim
          in
          let prev = ref max_int in
          List.iter
            (fun n ->
              let sim = Sim.compute ~engine ~budget:(Budget.trip_after n) g1 g2 in
              Alcotest.(check bool)
                (Printf.sprintf "sim inst%d trip %d contains exact" i n)
                true
                (Array.for_all2
                   (fun truncated ex ->
                     Phom_graph.Bitset.fold
                       (fun u acc -> acc && Phom_graph.Bitset.mem truncated u)
                       ex true)
                   sim exact);
              let c = total sim in
              Alcotest.(check bool)
                (Printf.sprintf "sim inst%d trip %d monotone" i n)
                true (c <= !prev);
              prev := c)
            trip_points)
        [ Sim.Naive; Sim.Hhk ])
    grid_instances

(* closures under-approximate: bits only ever appear as the budget grows,
   and all of them are bits of the full closure *)
let test_grid_closures () =
  let rng = Random.State.make [| 41 |] in
  let er =
    Phom_graph.Generators.erdos_renyi ~rng ~n:20 ~m:45 ~labels:(fun i ->
        "n" ^ string_of_int i)
  in
  (* cycles, self-loops and fans: trips land inside multi-node components *)
  let planted = planted_scc_gen ~max_n:40 () (Random.State.make [| 43 |]) in
  let check_one name compute full g =
    let count m =
      let c = ref 0 in
      for u = 0 to Phom_graph.Digraph.n g - 1 do
        Phom_graph.Bitmatrix.iter_row (fun _ -> incr c) m u
      done;
      !c
    in
    let subset a b =
      let ok = ref true in
      for u = 0 to Phom_graph.Digraph.n g - 1 do
        Phom_graph.Bitmatrix.iter_row
          (fun v -> if not (Phom_graph.Bitmatrix.get b u v) then ok := false)
          a u
      done;
      !ok
    in
    let prev = ref (-1) in
    List.iter
      (fun n ->
        let m = compute (Budget.trip_after n) in
        Alcotest.(check bool)
          (Printf.sprintf "%s trip %d under-approximates" name n)
          true (subset m full);
        let c = count m in
        Alcotest.(check bool)
          (Printf.sprintf "%s trip %d monotone" name n)
          true (c >= !prev);
        prev := c)
      trip_points
  in
  List.iter
    (fun (gname, g) ->
      check_one ("transitive_closure " ^ gname)
        (fun b -> TC.compute ~budget:b g)
        (TC.compute g) g;
      check_one ("bounded_closure " ^ gname)
        (fun b -> BC.compute ~budget:b ~k:3 g)
        (BC.compute ~k:3 g) g)
    [ ("er", er); ("planted", planted) ]

(* decision procedures must stay sound: a budgeted answer, when given, must
   agree with the unbudgeted one *)
let test_grid_decide () =
  List.iteri
    (fun i t ->
      List.iter
        (fun injective ->
          let truth = Exact.decide ~injective t in
          List.iter
            (fun n ->
              let b = Budget.trip_after n in
              (match Exact.decide ~injective ~budget:b t with
              | None -> ()
              | some ->
                  Alcotest.(check bool)
                    (Printf.sprintf "exact.decide inst%d trip %d sound" i n)
                    true (some = truth));
              let pb = Budget.trip_after n in
              match Phom.Prefilter.decide ~injective ~budget:pb t with
              | None -> ()
              | some ->
                  Alcotest.(check bool)
                    (Printf.sprintf "prefilter.decide inst%d trip %d sound" i n)
                    true (some = truth))
            trip_points)
        [ false; true ])
    grid_instances

let test_grid_symmetric () =
  List.iteri
    (fun i t ->
      let run b =
        let m = Phom.Symmetric.max_card ~budget:b t in
        (* validate against the closed instance the mapping is for *)
        let closed = Phom.Symmetric.close_instance t in
        Alcotest.(check bool)
          (Printf.sprintf "symmetric inst%d valid" i)
          true
          (Instance.is_valid closed m);
        Instance.qual_card t m
      in
      check_grid
        (Printf.sprintf "symmetric inst%d" i)
        ~unbudgeted:(Instance.qual_card t (Phom.Symmetric.max_card t))
        run)
    grid_instances

(* the weighted approximations across the trip grid: Halldórsson's weight
   classes share one tripping token, so a trip can land in any class — but
   every answer stays valid, and the independent set never empty *)
let test_parallel_fault_grid () =
  let g =
    let rng = Random.State.make [| 61 |] in
    let n = 24 in
    let edges = ref [] in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Random.State.float rng 1.0 < 0.3 then edges := (u, v) :: !edges
      done
    done;
    U.create ~weights:(Array.init n (fun i -> float_of_int (1 + (i mod 5)))) n !edges
  in
  List.iter
    (fun n ->
      let b = Budget.trip_after n in
      let s = Wis.max_weight_independent_set ~budget:b g in
      Alcotest.(check bool)
        (Printf.sprintf "valid IS at trip %d" n)
        true
        (U.is_independent g s);
      Alcotest.(check bool)
        (Printf.sprintf "never empty at trip %d" n)
        true (s <> []);
      let c = Wis.max_weight_clique ~budget:(Budget.trip_after n) g in
      Alcotest.(check bool)
        (Printf.sprintf "valid clique at trip %d" n)
        true (U.is_clique g c))
    trip_points

let test_solve_within_deadline () =
  (* an already-expired deadline must still return a valid result with an
     Exhausted status, quickly *)
  let t = List.hd grid_instances in
  let b = Budget.create ~anchor:0. ~timeout:1.0 () in
  let r = Phom.Api.solve_within ~budget:b Phom.Api.CPH t in
  check_valid t r.Phom.Api.mapping;
  Alcotest.(check bool)
    "exhausted (deadline)" true
    (r.Phom.Api.status = Budget.Exhausted Budget.Deadline)

let test_solve_within_complete () =
  let t = List.hd grid_instances in
  let b = Budget.create ~steps:50_000_000 () in
  let r = Phom.Api.solve_within ~budget:b Phom.Api.CPH t in
  let r0 = Phom.Api.solve Phom.Api.CPH t in
  Alcotest.(check bool) "complete" true (r.Phom.Api.status = Budget.Complete);
  Alcotest.(check (float 1e-9)) "same quality" r0.Phom.Api.quality r.Phom.Api.quality

let suite =
  [
    ( "budget",
      [
        Alcotest.test_case "trip_after exact count" `Quick test_trip_after_exact_count;
        Alcotest.test_case "trip_after zero" `Quick test_trip_after_zero;
        Alcotest.test_case "unlimited" `Quick test_unlimited;
        Alcotest.test_case "deadline (expired anchor)" `Quick test_deadline_trips;
        Alcotest.test_case "deadline (busy loop)" `Quick test_deadline_busy_loop;
        Alcotest.test_case "cancel" `Quick test_cancel;
        Alcotest.test_case "cancel hook" `Quick test_cancel_hook;
        Alcotest.test_case "create validation" `Quick test_create_validation;
        Alcotest.test_case "strings" `Quick test_strings;
        Alcotest.test_case "parallel fault grid stays valid" `Quick test_parallel_fault_grid;
      ] );
    ( "fault_grid",
      [
        Alcotest.test_case "compMaxCard" `Quick test_grid_comp_max_card;
        Alcotest.test_case "compMaxSim" `Quick test_grid_comp_max_sim;
        Alcotest.test_case "naive product" `Quick test_grid_naive;
        Alcotest.test_case "exact branch and bound" `Quick test_grid_exact;
        Alcotest.test_case "greedy via run_on" `Quick test_grid_greedy_via_run_on;
        Alcotest.test_case "wis approximations and exact clique" `Quick test_grid_wis;
        Alcotest.test_case "ullmann" `Quick test_grid_ullmann;
        Alcotest.test_case "mcs" `Quick test_grid_mcs;
        Alcotest.test_case "ged" `Quick test_grid_ged;
        Alcotest.test_case "simulation" `Quick test_grid_simulation;
        Alcotest.test_case "closures" `Quick test_grid_closures;
        Alcotest.test_case "decision procedures" `Quick test_grid_decide;
        Alcotest.test_case "symmetric" `Quick test_grid_symmetric;
        Alcotest.test_case "solve_within: expired deadline" `Quick test_solve_within_deadline;
        Alcotest.test_case "solve_within: ample budget" `Quick test_solve_within_complete;
      ] );
  ]
