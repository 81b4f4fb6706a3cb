(* Tree decompositions: validity of the elimination-order construction and
   of the nice rewrite, plus the width guarantees the DP's auto-selection
   leans on — exact on trees, series-parallel graphs and full k-trees. *)

module D = Phom_graph.Digraph
module G = Phom_graph.Generators
module Td = Phom_treedecomp.Treedecomp

let lbl _ = "x"

let ok_or_fail name = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" name e

let check_valid name g =
  let td = Td.compute g in
  ok_or_fail name (Td.check g td);
  let nt = Td.nice td in
  ok_or_fail (name ^ " nice") (Td.check_nice g nt);
  Alcotest.(check int) (name ^ " widths agree") td.Td.width nt.Td.nwidth

let test_random_graphs () =
  for seed = 0 to 39 do
    let rng = Random.State.make [| 0xdec0; seed |] in
    let n = 1 + Random.State.int rng 12 in
    let m = min (Random.State.int rng (2 * n)) (n * (n - 1) / 2) in
    check_valid
      (Printf.sprintf "er seed %d" seed)
      (G.erdos_renyi ~rng ~n ~m ~labels:lbl)
  done

let test_structured_graphs () =
  for seed = 0 to 19 do
    let rng = Random.State.make [| 0xdec1; seed |] in
    let n = 2 + Random.State.int rng 14 in
    check_valid (Printf.sprintf "tree seed %d" seed) (G.random_tree ~rng ~n ~labels:lbl);
    check_valid
      (Printf.sprintf "sp seed %d" seed)
      (G.series_parallel ~rng ~n ~labels:lbl);
    check_valid
      (Printf.sprintf "ktree seed %d" seed)
      (G.random_ktree ~rng ~n ~k:3 ~labels:lbl ());
    check_valid
      (Printf.sprintf "partial ktree seed %d" seed)
      (G.random_ktree ~rng ~n ~k:3 ~keep:0.6 ~labels:lbl ())
  done

let test_width_guarantees () =
  for seed = 0 to 19 do
    let rng = Random.State.make [| 0xdec2; seed |] in
    let n = 5 + Random.State.int rng 20 in
    let tree = G.random_tree ~rng ~n ~labels:lbl in
    Alcotest.(check int)
      (Printf.sprintf "tree width seed %d" seed)
      1
      (Td.width tree);
    let sp = G.series_parallel ~rng ~n ~labels:lbl in
    Alcotest.(check bool)
      (Printf.sprintf "sp width <= 2 seed %d" seed)
      true
      (Td.width sp <= 2);
    (* a full k-tree is chordal with clique number k+1: the min-degree
       order eliminates simplicial vertices, so the bound is tight *)
    let kt = G.random_ktree ~rng ~n ~k:3 ~labels:lbl () in
    Alcotest.(check int) (Printf.sprintf "ktree width seed %d" seed) 3 (Td.width kt)
  done

let test_degenerate () =
  let empty = D.make ~labels:[||] ~edges:[] in
  Alcotest.(check int) "empty width" (-1) (Td.width empty);
  let nt = Td.nice (Td.compute empty) in
  Alcotest.(check int) "empty nice is one leaf" 1 (Array.length nt.Td.nkind);
  ok_or_fail "empty nice" (Td.check_nice empty nt);
  let single = D.make ~labels:[| "a" |] ~edges:[ (0, 0) ] in
  Alcotest.(check int) "self-loop single width" 0 (Td.width single);
  check_valid "self-loop single" single;
  (* disconnected components must still merge into one rooted nice tree *)
  let islands = D.make ~labels:[| "a"; "b"; "c" |] ~edges:[] in
  check_valid "islands" islands;
  let nt = Td.nice (Td.compute islands) in
  Alcotest.(check int)
    "islands root is last node"
    (Array.length nt.Td.nkind - 1)
    nt.Td.root

let test_directions_irrelevant () =
  (* width is a property of the underlying undirected graph *)
  let g = D.make ~labels:[| "a"; "b"; "c" |] ~edges:[ (0, 1); (1, 2) ] in
  let r = D.make ~labels:[| "a"; "b"; "c" |] ~edges:[ (1, 0); (2, 1) ] in
  Alcotest.(check int) "reversed same width" (Td.width g) (Td.width r)

let suite =
  [
    ( "treedecomp",
      [
        Alcotest.test_case "random graphs valid" `Quick test_random_graphs;
        Alcotest.test_case "structured graphs valid" `Quick test_structured_graphs;
        Alcotest.test_case "width guarantees" `Quick test_width_guarantees;
        Alcotest.test_case "degenerate graphs" `Quick test_degenerate;
        Alcotest.test_case "directions irrelevant" `Quick test_directions_irrelevant;
      ] );
  ]
