open Helpers
module Exact = Phom.Exact

let test_two_witnesses () =
  (* one pattern node, two identical targets: two optimal mappings *)
  let g1 = graph [ "a" ] [] and g2 = graph [ "a"; "a" ] [] in
  let t = eq_instance g1 g2 in
  let mappings, exhaustive =
    Exact.enumerate_optimal ~objective:Exact.Cardinality t
  in
  Alcotest.(check bool) "exhaustive" true exhaustive;
  Alcotest.(check (list (list (pair int int)))) "both witnesses"
    [ [ (0, 0) ]; [ (0, 1) ] ]
    mappings;
  (* exactly [limit] optima is no truncation; one more than [limit] is *)
  let enumerate limit =
    Exact.enumerate_optimal ~limit ~objective:Exact.Cardinality t
  in
  Alcotest.(check bool) "limit 2 exhaustive" true (snd (enumerate 2));
  let mappings, exhaustive = enumerate 1 in
  Alcotest.(check bool) "limit 1 truncated" false exhaustive;
  Alcotest.(check (list (list (pair int int)))) "limit 1 keeps the first"
    [ [ (0, 0) ] ] mappings

let test_limit_truncates () =
  let g1 = graph [ "a"; "a" ] [] and g2 = graph [ "a"; "a"; "a" ] [] in
  let t = eq_instance g1 g2 in
  let mappings, exhaustive =
    Exact.enumerate_optimal ~limit:2 ~objective:Exact.Cardinality t
  in
  Alcotest.(check bool) "truncated" false exhaustive;
  Alcotest.(check int) "two returned" 2 (List.length mappings)

let test_unique_optimum () =
  let g1 = graph [ "a"; "b" ] [ (0, 1) ] in
  let g2 = graph [ "a"; "x"; "b" ] [ (0, 1); (1, 2) ] in
  let t = eq_instance g1 g2 in
  let mappings, exhaustive =
    Exact.enumerate_optimal ~objective:Exact.Cardinality t
  in
  Alcotest.(check bool) "exhaustive" true exhaustive;
  Alcotest.(check (list (list (pair int int)))) "unique" [ [ (0, 0); (1, 2) ] ]
    mappings

let test_similarity_objective () =
  (* two targets with different similarity: the similarity objective keeps
     only the better one; the cardinality objective keeps both *)
  let g1 = graph [ "a" ] [] and g2 = graph [ "x"; "y" ] [] in
  let mat = Simmat.create ~n1:1 ~n2:2 in
  Simmat.set mat 0 0 0.9;
  Simmat.set mat 0 1 0.6;
  let t = Instance.make ~g1 ~g2 ~mat ~xi:0.5 () in
  let by_sim, _ =
    Exact.enumerate_optimal ~objective:(Exact.Similarity [| 1. |]) t
  in
  Alcotest.(check (list (list (pair int int)))) "only the best" [ [ (0, 0) ] ]
    by_sim;
  let by_card, _ = Exact.enumerate_optimal ~objective:Exact.Cardinality t in
  Alcotest.(check int) "cardinality keeps both" 2 (List.length by_card)

let prop_all_optimal_and_valid =
  qtest ~count:80 "enumerate: every mapping is valid and optimal"
    (instance_gen ~max_n1:3 ~max_n2:4 ()) print_instance (fun t ->
      let opt = Exact.solve ~objective:Exact.Cardinality t in
      let mappings, _ = Exact.enumerate_optimal ~objective:Exact.Cardinality t in
      mappings <> []
      && List.for_all
           (fun m ->
             Instance.is_valid t m
             && Mapping.size m = Mapping.size opt.Exact.mapping)
           mappings)

let prop_contains_solver_answer =
  qtest ~count:80 "enumerate: contains the solver's mapping"
    (instance_gen ~max_n1:3 ~max_n2:4 ()) print_instance (fun t ->
      let opt = Exact.solve ~objective:Exact.Cardinality t in
      let mappings, exhaustive =
        Exact.enumerate_optimal ~objective:Exact.Cardinality t
      in
      (not exhaustive) || List.mem opt.Exact.mapping mappings)

let prop_injective_variant =
  qtest ~count:60 "enumerate: 1-1 variant yields injective mappings"
    (instance_gen ~max_n1:3 ~max_n2:4 ()) print_instance (fun t ->
      let mappings, _ =
        Exact.enumerate_optimal ~injective:true ~objective:Exact.Cardinality t
      in
      List.for_all (Instance.is_valid ~injective:true t) mappings)

let suite =
  [
    ( "enumerate",
      [
        Alcotest.test_case "two witnesses" `Quick test_two_witnesses;
        Alcotest.test_case "limit truncates" `Quick test_limit_truncates;
        Alcotest.test_case "unique optimum" `Quick test_unique_optimum;
        Alcotest.test_case "similarity objective" `Quick test_similarity_objective;
        prop_all_optimal_and_valid;
        prop_contains_solver_answer;
        prop_injective_variant;
      ] );
  ]
