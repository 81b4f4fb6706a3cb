open Helpers

let test_dag () =
  let g = graph [ "a"; "b"; "c"; "d" ] [ (0, 1); (1, 2) ] in
  let t = TC.compute g in
  Alcotest.(check bool) "0->2" true (BM.get t 0 2);
  Alcotest.(check bool) "no self" false (BM.get t 0 0);
  Alcotest.(check bool) "isolated" false (BM.get t 3 3);
  Alcotest.(check int) "count" 3 (BM.count t)

let test_cycle () =
  let g = graph [ "a"; "b"; "c" ] [ (0, 1); (1, 2); (2, 0) ] in
  let t = TC.compute g in
  Alcotest.(check int) "full" 9 (BM.count t);
  Alcotest.(check bool) "self via cycle" true (BM.get t 1 1)

let test_self_loop () =
  let g = graph [ "a"; "b" ] [ (0, 0); (0, 1) ] in
  let t = TC.compute g in
  Alcotest.(check bool) "self loop" true (BM.get t 0 0);
  Alcotest.(check bool) "1 no self" false (BM.get t 1 1)

let test_graph_form () =
  let g = graph [ "a"; "b"; "c" ] [ (0, 1); (1, 2) ] in
  let plus = TC.graph g in
  Alcotest.(check int) "edges" 3 (D.nb_edges plus);
  Alcotest.(check bool) "0->2 edge" true (D.has_edge plus 0 2);
  Alcotest.(check string) "labels kept" "b" (D.label plus 1)

let prop_matches_naive =
  qtest ~count:80 "tc: condensation sweep = per-node BFS" (digraph_gen ~max_n:12 ())
    print_digraph (fun g -> BM.equal (TC.compute g) (TC.naive g))

let prop_planted_matches_naive =
  qtest ~count:150 "tc: planted cycles, self-loops and fans = per-node BFS"
    (planted_scc_gen ()) print_digraph (fun g -> BM.equal (TC.compute g) (TC.naive g))

(* the tick schedule the daemon's budget_steps and the bench step rows read:
   one per distinct condensation edge, one per component *)
let prop_tick_schedule =
  qtest ~count:100 "tc: steps = distinct condensation edges + components"
    (QCheck.Gen.oneof [ planted_scc_gen (); digraph_gen ~max_n:12 () ])
    print_digraph (fun g ->
      let scc = Phom_graph.Scc.compute g in
      let cross =
        D.fold_edges
          (fun u v acc ->
            let c = scc.Phom_graph.Scc.comp.(u) and d = scc.Phom_graph.Scc.comp.(v) in
            if c <> d then (c, d) :: acc else acc)
          g []
      in
      let b = Phom_graph.Budget.create () in
      ignore (TC.compute ~budget:b g);
      Phom_graph.Budget.steps_used b
      = List.length (List.sort_uniq compare cross) + scc.Phom_graph.Scc.count)

let prop_idempotent =
  qtest ~count:50 "tc: closure of closure = closure (modulo new cycles)"
    (dag_gen ~max_n:9 ()) print_digraph (fun g ->
      (* on DAGs the closure graph is transitively closed already *)
      let plus = TC.graph g in
      BM.equal (TC.compute plus) (TC.compute g))

let prop_transitive =
  qtest ~count:60 "tc: relation is transitive" (digraph_gen ~max_n:10 ())
    print_digraph (fun g ->
      let t = TC.compute g in
      let n = D.n g in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          for c = 0 to n - 1 do
            if BM.get t a b && BM.get t b c && not (BM.get t a c) then ok := false
          done
        done
      done;
      !ok)

let prop_contains_edges =
  qtest ~count:60 "tc: contains every edge" (digraph_gen ()) print_digraph
    (fun g ->
      let t = TC.compute g in
      D.fold_edges (fun u v acc -> acc && BM.get t u v) g true)

let suite =
  [
    ( "transitive_closure",
      [
        Alcotest.test_case "simple DAG" `Quick test_dag;
        Alcotest.test_case "cycle closes fully" `Quick test_cycle;
        Alcotest.test_case "self loops" `Quick test_self_loop;
        Alcotest.test_case "closure as a digraph" `Quick test_graph_form;
        prop_matches_naive;
        prop_planted_matches_naive;
        prop_tick_schedule;
        prop_idempotent;
        prop_transitive;
        prop_contains_edges;
      ] );
  ]
