open Helpers
module ML = Phom.Matching_list
module Greedy = Phom.Greedy
module CMC = Phom.Comp_max_card

let initial (t : Instance.t) = ML.of_candidates (ML.universe t)
let run_greedy t = Greedy.run ~pick:`Best_sim ~mode:`Free (initial t)

let test_empty () =
  let t = eq_instance (graph [] []) (graph [] []) in
  let r = run_greedy t in
  Alcotest.(check (list (pair int int))) "sigma" [] r.Greedy.sigma;
  Alcotest.(check (list (pair int int))) "conflict" [] r.Greedy.conflict

let test_conflict_nonempty () =
  (* the paper remarks I is non-empty whenever H is *)
  let t = eq_instance (graph [ "a" ] []) (graph [ "a"; "a" ] []) in
  let r = run_greedy t in
  Alcotest.(check bool) "sigma found" true (r.Greedy.sigma <> []);
  Alcotest.(check bool) "conflict non-empty" true (r.Greedy.conflict <> [])

let test_deep_recursion_is_heap_bounded () =
  (* hundreds of pattern nodes over many shared candidates: the paper's
     recursive greedyMatch would nest thousands of frames; the
     defunctionalized runner must survive easily *)
  let n = 120 in
  let labels = Array.make n "x" in
  let g1 = D.make ~labels ~edges:(List.init (n - 1) (fun i -> (i, i + 1))) in
  let g2 =
    D.make ~labels:(Array.make (n + 5) "x")
      ~edges:(List.init (n + 4) (fun i -> (i, i + 1)))
  in
  let t = eq_instance g1 g2 in
  let m = CMC.run t in
  check_valid t m;
  (* quality note: with every node sharing one label the max-|good| pick
     maps alternate chain nodes onto a single target (their induced
     subgraph is edgeless, so that is a valid mapping) and converges to
     ~0.5 — the approximation algorithm exercising its guarantee rather
     than finding the planted optimum. What this test pins down is that the
     deep recursion completes on the heap and stays valid. *)
  Alcotest.(check bool) "substantial mapping" true
    (Instance.qual_card t m >= 0.4)

let prop_sigma_and_conflict_from_h =
  qtest ~count:100 "greedy: sigma/conflict pairs come from the matching list"
    (instance_gen ()) print_instance (fun t ->
      let cands = Instance.candidates t in
      let r = run_greedy t in
      let in_h (v, u) = Array.mem u cands.(v) in
      List.for_all in_h r.Greedy.sigma && List.for_all in_h r.Greedy.conflict)

let prop_sigma_valid =
  qtest ~count:100 "greedy: one round already yields a valid mapping"
    (instance_gen ()) print_instance (fun t ->
      Instance.is_valid t (run_greedy t).Greedy.sigma)

let prop_conflict_nonempty =
  qtest ~count:100 "greedy: non-empty input gives non-empty conflict set"
    (instance_gen ()) print_instance (fun t ->
      ML.is_empty (initial t) || (run_greedy t).Greedy.conflict <> [])

(* the paper's claim about I: no two of its pairs fit in one valid
   mapping (same pattern node, a broken path, or in 1-1 mode a shared
   target) *)
let prop_conflict_pairwise_contradictory =
  qtest ~count:200 "greedy: the conflict set is pairwise contradictory"
    (instance_gen ()) print_instance (fun t ->
      let h = initial t in
      let unit_caps =
        ML.fold (fun _ u c -> ML.Int_map.add u 1 c) h ML.Int_map.empty
      in
      List.for_all
        (fun (mode, injective) ->
          let r = Greedy.run ~pick:`Best_sim ~mode h in
          let rec ok = function
            | [] -> true
            | p :: rest ->
                List.for_all
                  (fun q -> not (Instance.is_valid ~injective t [ p; q ]))
                  rest
                && ok rest
          in
          ok r.Greedy.conflict)
        [ (`Free, false); (`Capacitated unit_caps, true) ])

let test_capacity_two () =
  (* three pattern nodes over one target with capacity 2 *)
  let t = eq_instance (graph [ "a"; "a"; "a" ] []) (graph [ "a" ] []) in
  let caps = ML.Int_map.singleton 0 2 in
  let r = Greedy.run ~pick:`Best_sim ~mode:(`Capacitated caps) (initial t) in
  Alcotest.(check int) "exactly two placed" 2 (Mapping.size r.Greedy.sigma)

let prop_deterministic =
  qtest ~count:60 "greedy: compMaxCard is deterministic" (instance_gen ())
    print_instance (fun t -> CMC.run t = CMC.run t)

let prop_pick_variants_valid =
  qtest ~count:100 "greedy: both pick heuristics give valid mappings"
    (instance_gen ()) print_instance (fun t ->
      Instance.is_valid t (CMC.run ~pick:`First t)
      && Instance.is_valid ~injective:true t (CMC.run ~injective:true ~pick:`First t))

let suite =
  [
    ( "greedy",
      [
        Alcotest.test_case "empty input" `Quick test_empty;
        Alcotest.test_case "conflict set non-empty" `Quick test_conflict_nonempty;
        Alcotest.test_case "deep recursion heap-bounded" `Quick
          test_deep_recursion_is_heap_bounded;
        Alcotest.test_case "capacity two" `Quick test_capacity_two;
        prop_deterministic;
        prop_sigma_and_conflict_from_h;
        prop_sigma_valid;
        prop_conflict_nonempty;
        prop_conflict_pairwise_contradictory;
        prop_pick_variants_valid;
      ] );
  ]
