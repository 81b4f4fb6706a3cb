open Helpers

let test_validation () =
  let g1 = graph [ "a" ] [] and g2 = graph [ "a"; "b" ] [] in
  let bad_mat = Simmat.create ~n1:2 ~n2:2 in
  Alcotest.check_raises "mat dims"
    (Invalid_argument "Instance.make: mat dimensions do not match the graphs")
    (fun () -> ignore (Instance.make ~g1 ~g2 ~mat:bad_mat ~xi:0.5 ()));
  let mat = Simmat.of_label_equality g1 g2 in
  Alcotest.check_raises "xi range"
    (Invalid_argument "Instance.make: xi outside [0,1]") (fun () ->
      ignore (Instance.make ~g1 ~g2 ~mat ~xi:1.5 ()));
  let bad_tc = BM.create ~rows:3 ~cols:3 in
  Alcotest.check_raises "tc dims"
    (Invalid_argument "Instance.make: tc2 dimensions do not match g2") (fun () ->
      ignore (Instance.make ~tc2:bad_tc ~g1 ~g2 ~mat ~xi:0.5 ()))

let test_candidates_filter_self_loops () =
  let g1 = graph [ "a"; "a" ] [ (0, 0) ] in
  (* g2: one 'a' on a cycle, one plain 'a' *)
  let g2 = graph [ "a"; "a"; "x" ] [ (0, 2); (2, 0) ] in
  let t = eq_instance g1 g2 in
  let c = Instance.candidates t in
  Alcotest.(check (array int)) "loop node: only cyclic target" [| 0 |] c.(0);
  Alcotest.(check (array int)) "plain node: both" [| 0; 1 |] c.(1)

let test_candidates_sorted_by_similarity () =
  let g1 = graph [ "a" ] [] and g2 = graph [ "x"; "y"; "z" ] [] in
  let mat = Simmat.create ~n1:1 ~n2:3 in
  Simmat.set mat 0 0 0.8;
  Simmat.set mat 0 1 0.9;
  Simmat.set mat 0 2 0.85;
  let t = Instance.make ~g1 ~g2 ~mat ~xi:0.7 () in
  Alcotest.(check (array int)) "descending" [| 1; 2; 0 |]
    (Instance.candidates t).(0)

let test_custom_tc2_changes_semantics () =
  let g1 = graph [ "a"; "b" ] [ (0, 1) ] in
  let g2 = graph [ "a"; "x"; "b" ] [ (0, 1); (1, 2) ] in
  let mat = Simmat.of_label_equality g1 g2 in
  let bounded = Phom_graph.Bounded_closure.compute ~k:1 g2 in
  let t1 = Instance.make ~tc2:bounded ~g1 ~g2 ~mat ~xi:0.5 () in
  Alcotest.(check (option bool)) "edge-to-edge fails" (Some false)
    (Phom.Exact.decide t1);
  let t2 = Instance.make ~g1 ~g2 ~mat ~xi:0.5 () in
  Alcotest.(check (option bool)) "p-hom succeeds" (Some true) (Phom.Exact.decide t2)

let suite =
  [
    ( "instance",
      [
        Alcotest.test_case "construction validation" `Quick test_validation;
        Alcotest.test_case "self-loop candidate filter" `Quick
          test_candidates_filter_self_loops;
        Alcotest.test_case "candidates sorted by similarity" `Quick
          test_candidates_sorted_by_similarity;
        Alcotest.test_case "custom closure changes semantics" `Quick
          test_custom_tc2_changes_semantics;
      ] );
  ]
