open Helpers

let test_basic () =
  let m = Simmat.create ~n1:2 ~n2:3 in
  Alcotest.(check int) "n1" 2 (Simmat.n1 m);
  Alcotest.(check int) "n2" 3 (Simmat.n2 m);
  Simmat.set m 1 2 0.5;
  Alcotest.(check (float 1e-9)) "get" 0.5 (Simmat.get m 1 2);
  Alcotest.(check (float 1e-9)) "default zero" 0.0 (Simmat.get m 0 0)

let test_validation () =
  let m = Simmat.create ~n1:2 ~n2:2 in
  Alcotest.check_raises "range" (Invalid_argument "Simmat.set: value outside [0,1]")
    (fun () -> Simmat.set m 0 0 1.5);
  Alcotest.check_raises "bounds" (Invalid_argument "Simmat: index out of bounds")
    (fun () -> ignore (Simmat.get m 2 0))

let test_of_fun_clamps () =
  let m = Simmat.of_fun ~n1:1 ~n2:2 (fun _ u -> if u = 0 then -3. else 7.) in
  Alcotest.(check (float 1e-9)) "clamped low" 0.0 (Simmat.get m 0 0);
  Alcotest.(check (float 1e-9)) "clamped high" 1.0 (Simmat.get m 0 1)

let test_label_equality () =
  let g1 = graph [ "a"; "b" ] [] and g2 = graph [ "b"; "a"; "c" ] [] in
  let m = Simmat.of_label_equality g1 g2 in
  Alcotest.(check (float 1e-9)) "a=a" 1.0 (Simmat.get m 0 1);
  Alcotest.(check (float 1e-9)) "a≠b" 0.0 (Simmat.get m 0 0)

let same_matrix a b =
  Simmat.n1 a = Simmat.n1 b
  && Simmat.n2 a = Simmat.n2 b
  &&
  let ok = ref true in
  for v = 0 to Simmat.n1 a - 1 do
    for u = 0 to Simmat.n2 a - 1 do
      if Simmat.get a v u <> Simmat.get b v u then ok := false
    done
  done;
  !ok

let by_string_equality =
  Simmat.of_label_sim (fun a b -> if String.equal a b then 1. else 0.)

let test_label_equality_edges () =
  let g = graph [ "a"; "b"; "a" ] [ (0, 1) ] and empty = graph [] [] in
  List.iter
    (fun (name, g1, g2) ->
      let m = Simmat.of_label_equality g1 g2 in
      Alcotest.(check (pair int int)) (name ^ " dims") (D.n g1, D.n g2)
        (Simmat.n1 m, Simmat.n2 m);
      Alcotest.(check bool) name true (same_matrix m (by_string_equality g1 g2)))
    [
      ("empty pattern", empty, g);
      ("empty data graph", g, empty);
      ("both empty", empty, empty);
    ]

let prop_label_equality =
  (* four labels over up to 12 nodes: repeated labels on both sides *)
  qtest ~count:100 "simmat: of_label_equality = of_label_sim with String.equal"
    (QCheck.Gen.pair
       (digraph_gen ~min_n:0 ~max_n:12 ())
       (digraph_gen ~min_n:0 ~max_n:12 ()))
    (fun (g1, g2) -> print_digraph g1 ^ "\n" ^ print_digraph g2)
    (fun (g1, g2) ->
      same_matrix (Simmat.of_label_equality g1 g2) (by_string_equality g1 g2))

let test_candidates_sorted () =
  let m = Simmat.create ~n1:1 ~n2:4 in
  Simmat.set m 0 0 0.6;
  Simmat.set m 0 1 0.9;
  Simmat.set m 0 2 0.9;
  Simmat.set m 0 3 0.3;
  let c = Simmat.candidates m ~xi:0.5 in
  Alcotest.(check (array int)) "sorted desc, ties ascending" [| 1; 2; 0 |] c.(0);
  Alcotest.(check int) "count" 3 (Simmat.candidate_count m ~xi:0.5);
  Alcotest.(check int) "count all" 4 (Simmat.candidate_count m ~xi:0.0)

let test_restrict () =
  let m = Simmat.of_fun ~n1:3 ~n2:3 (fun v u -> float_of_int ((v * 3) + u) /. 10.) in
  let r = Simmat.restrict m ~rows:[| 2; 0 |] ~cols:[| 1 |] in
  Alcotest.(check (float 1e-9)) "(2,1)" 0.7 (Simmat.get r 0 0);
  Alcotest.(check (float 1e-9)) "(0,1)" 0.1 (Simmat.get r 1 0)

let test_combinators () =
  let a = Simmat.of_fun ~n1:1 ~n2:2 (fun _ u -> if u = 0 then 0.2 else 0.8) in
  let b = Simmat.of_fun ~n1:1 ~n2:2 (fun _ u -> if u = 0 then 0.5 else 0.1) in
  let mx = Simmat.pointwise_max a b in
  Alcotest.(check (float 1e-9)) "max 0" 0.5 (Simmat.get mx 0 0);
  Alcotest.(check (float 1e-9)) "max 1" 0.8 (Simmat.get mx 0 1);
  let s = Simmat.scale 2.0 a in
  Alcotest.(check (float 1e-9)) "scale clamps" 1.0 (Simmat.get s 0 1);
  Alcotest.(check (float 1e-9)) "max_value" 1.0 (Simmat.max_value s)

let suite =
  [
    ( "simmat",
      [
        Alcotest.test_case "create/get/set" `Quick test_basic;
        Alcotest.test_case "validation" `Quick test_validation;
        Alcotest.test_case "of_fun clamps" `Quick test_of_fun_clamps;
        Alcotest.test_case "label equality" `Quick test_label_equality;
        Alcotest.test_case "label equality on empty graphs" `Quick
          test_label_equality_edges;
        prop_label_equality;
        Alcotest.test_case "candidates sorted by similarity" `Quick
          test_candidates_sorted;
        Alcotest.test_case "restrict" `Quick test_restrict;
        Alcotest.test_case "scale / pointwise max" `Quick test_combinators;
      ] );
  ]
