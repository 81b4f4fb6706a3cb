open! Helpers
module ML = Phom.Matching_list

let ml cands = ML.of_candidates (Array.of_list (List.map Array.of_list cands))
let check_good msg want h v = Alcotest.(check (array int)) msg want (ML.good h v)

let test_of_candidates () =
  let h = ml [ [ 2; 1; 2 ]; []; [ 3 ] ] in
  Alcotest.(check int) "size skips empty rows" 2 (ML.size h);
  Alcotest.(check bool) "node 1 absent" false (ML.mem h 1);
  check_good "good 0 sorted, deduplicated" [| 1; 2 |] h 0;
  check_good "absent node" [||] h 1;
  Alcotest.(check int) "pairs" 3 (ML.nb_pairs h);
  Alcotest.(check (list int)) "nodes" [ 0; 2 ] (ML.nodes h)

let test_of_pairs () =
  let h = ML.of_pairs [ (3, 5); (1, 2); (3, 4); (1, 2) ] in
  Alcotest.(check (list int)) "nodes ascending" [ 1; 3 ] (ML.nodes h);
  check_good "rows ascending" [| 4; 5 |] h 3;
  Alcotest.(check int) "duplicates collapse" 3 (ML.nb_pairs h);
  Alcotest.(check bool) "no pairs, empty list" true (ML.is_empty (ML.of_pairs []))

let test_pick_max_good () =
  let h = ml [ [ 1 ]; [ 1; 2; 3 ]; [ 1; 2 ]; [ 4; 5; 6 ] ] in
  let v, goods = ML.widest h in
  Alcotest.(check int) "largest good, smallest id on a tie" 1 v;
  Alcotest.(check (array int)) "its candidates" [| 1; 2; 3 |] goods;
  Alcotest.check_raises "empty list"
    (Invalid_argument "Matching_list.widest: empty list") (fun () ->
      ignore (ML.widest (ml [])))

let test_move_to_minus_and_split () =
  (* one step on (0, 1): 0's other candidates, a pruned candidate of 1 and
     the target 1 elsewhere go to H⁻; the rest stays, in place, as H⁺ *)
  let h = ml [ [ 1; 2 ]; [ 3; 4 ]; [ 1; 5 ]; [ 6 ] ] in
  let moved = ML.take h 0 ~keep:1 in
  ML.prune h moved 1 (fun u -> u = 4);
  ML.prune h moved 0 (fun _ -> true);
  ML.prune_target h moved 1;
  let hminus = ML.finish h moved in
  Alcotest.(check (list int)) "H+ drops the taken node" [ 1; 2; 3 ] (ML.nodes h);
  check_good "H+ keeps the unpruned" [| 3 |] h 1;
  check_good "H+ loses the exhausted target" [| 5 |] h 2;
  check_good "H+ untouched node" [| 6 |] h 3;
  Alcotest.(check (list int)) "H- holds the moved nodes" [ 0; 1; 2 ]
    (ML.nodes hminus);
  check_good "H- gets the other candidates" [| 2 |] hminus 0;
  check_good "H- gets the pruned" [| 4 |] hminus 1;
  check_good "H- gets the target" [| 1 |] hminus 2

let test_split_merges_and_drops () =
  (* a node pruned twice gets one sorted H⁻ row; a node left with nothing
     leaves H⁺ *)
  let h = ml [ [ 7 ]; [ 1; 2; 3; 4 ]; [ 9 ] ] in
  let moved = ML.take h 0 ~keep:7 in
  ML.prune h moved 1 (fun u -> u = 3);
  ML.prune h moved 1 (fun u -> u = 1);
  ML.prune h moved 2 (fun _ -> true);
  ML.prune h moved 5 (fun _ -> true);
  let hminus = ML.finish h moved in
  Alcotest.(check (list int)) "H+" [ 1 ] (ML.nodes h);
  check_good "H+ row" [| 2; 4 |] h 1;
  Alcotest.(check (list int)) "H- nodes" [ 1; 2 ] (ML.nodes hminus);
  check_good "H- merged row" [| 1; 3 |] hminus 1;
  check_good "H- exhausted node" [| 9 |] hminus 2

let test_copy_is_independent () =
  let h = ml [ [ 1; 2 ]; [ 3 ] ] in
  let h' = ML.copy h in
  ignore (ML.finish h' (ML.take h' 0 ~keep:1));
  ML.remove_pairs h' [ (1, 3) ];
  Alcotest.(check bool) "copy consumed" true (ML.is_empty h');
  check_good "original row 0" [| 1; 2 |] h 0;
  check_good "original row 1" [| 3 |] h 1

let test_remove_pairs () =
  let h = ml [ [ 1; 2 ]; [ 3 ] ] in
  ML.remove_pairs h [ (0, 1); (1, 3); (0, 9); (4, 1) ];
  Alcotest.(check int) "node 1 dropped when exhausted" 1 (ML.size h);
  check_good "pair removed" [| 2 |] h 0

let test_set_good_drops_empty () =
  let h = ml [ [ 1 ]; [ 2; 3 ] ] in
  let moved = ML.take h 0 ~keep:1 in
  ML.prune h moved 1 (fun _ -> true);
  let hminus = ML.finish h moved in
  Alcotest.(check bool) "H+ dropped every exhausted node" true (ML.is_empty h);
  Alcotest.(check (list int)) "a lone candidate moves nowhere" [ 1 ]
    (ML.nodes hminus)

let test_fold () =
  let h = ml [ [ 2; 1 ]; []; [ 0 ] ] in
  Alcotest.(check (list (pair int int))) "pairs in order"
    [ (0, 1); (0, 2); (2, 0) ]
    (List.rev (ML.fold (fun v u acc -> (v, u) :: acc) h []))

let suite =
  [
    ( "matching_list",
      [
        Alcotest.test_case "of_candidates" `Quick test_of_candidates;
        Alcotest.test_case "of_pairs" `Quick test_of_pairs;
        Alcotest.test_case "pick = max good" `Quick test_pick_max_good;
        Alcotest.test_case "step: H+ in place, fresh H-" `Quick
          test_move_to_minus_and_split;
        Alcotest.test_case "step: merged rows, exhausted nodes" `Quick
          test_split_merges_and_drops;
        Alcotest.test_case "copy shares nothing" `Quick test_copy_is_independent;
        Alcotest.test_case "remove_pairs" `Quick test_remove_pairs;
        Alcotest.test_case "empty entries dropped" `Quick test_set_good_drops_empty;
        Alcotest.test_case "fold" `Quick test_fold;
      ] );
  ]
