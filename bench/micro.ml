(* Bechamel micro-benchmarks: one Test.make per core kernel, so regressions
   in the substrates are visible independently of the end-to-end tables. *)

open Bechamel
open Toolkit
module D = Phom_graph.Digraph
module G = Phom_graph.Generators
module TC = Phom_graph.Transitive_closure
module Labelsim = Phom_sim.Labelsim
module SF = Phom_sim.Similarity_flooding

let rng () = Random.State.make [| 17 |]

(* fixed inputs, built once *)
let er300 = G.erdos_renyi ~rng:(rng ()) ~n:300 ~m:1200 ~labels:(fun i -> "n" ^ string_of_int i)

(* cache-churn's data-graph shape: preferential attachment, n = 3000, out = 3,
   labels from a 100-label pool that its 20-node patterns also draw from *)
let pa3000 =
  let rng = rng () in
  G.preferential_attachment ~rng ~n:3000 ~out:3 ~labels:(fun _ ->
      G.label_name (Random.State.int rng 100))

let pattern20 = fst (G.paper_pattern ~rng:(rng ()) ~m:20)

(* a catalog holding [g] as "g" with its full closure cached *)
let catalog_with_closure g =
  let file = Filename.temp_file "micro_graph" ".phg" in
  Phom_graph.Graph_io.save file g;
  let c = Phom_server.Catalog.create () in
  let loaded = Phom_server.Catalog.load_graph c ~name:"g" ~path:file in
  Sys.remove file;
  (match loaded with Ok _ -> () | Error m -> failwith m);
  ignore (Phom_server.Catalog.closure c ~name:"g" ~hops:None);
  c

let edit c op (v, w) =
  match Phom_server.Catalog.edit c ~name:"g" ~op ~v ~w with
  | Ok r -> assert (r.Phom_server.Catalog.closures = 1)
  | Error m -> failwith m

(* a 3000-node path and its cached full closure. The row deletes the
   path's last edge and adds it back through [Catalog.edit]: each edit
   re-signs the graph and carries the closure, and the delete changes
   every row of it, so both edits rebuild it: the worst case for an edit.
   Lazy, so the other bench commands do not write its temporary file *)
let path3000_catalog =
  lazy
    (let n = 3000 in
     catalog_with_closure
       (D.make
          ~labels:(Array.init n (fun i -> "n" ^ string_of_int i))
          ~edges:(List.init (n - 1) (fun i -> (i, i + 1)))))

(* [pa3000] and its cached full closure, with an absent edge v->w where v
   already reaches w: adding it and deleting it again changes no
   reachability, so both edits re-sign the graph and carry the closure as
   it is, the cheapest edit of a cache-churn-sized graph *)
let pa3000_toggle =
  lazy
    (let c = catalog_with_closure pa3000 in
     let tc = TC.compute pa3000 in
     let rec find v w =
       if w = D.n pa3000 then find (v + 1) 0
       else if v <> w && Phom_graph.Bitmatrix.get tc v w && not (D.has_edge pa3000 v w)
       then (v, w)
       else find v (w + 1)
     in
     (c, find 0 0))

(* a served direct solve: the closure, the similarity matrix and the
   candidate table are computed once, as the daemon caches them, and each
   run builds a fresh instance on them, so greedyMatch's per-solve set-up
   (its candidate rows, masks and similarity rows) is timed *)
let served g1 g2 mat =
  let tc2 = TC.compute g2 in
  let cands = Phom.Instance.candidates (Phom.Instance.make ~tc2 ~g1 ~g2 ~mat ~xi:0.5 ()) in
  fun () ->
    let t = Phom.Instance.make ~tc2 ~g1 ~g2 ~mat ~xi:0.5 () in
    Phom.Instance.preset_candidates t cands;
    t

(* cache-churn's request: CPH of a 20-node pattern against [pa3000] under
   label equality *)
let churn_request =
  lazy (served pattern20 pa3000 (Phom_sim.Simmat.of_label_equality pattern20 pa3000))

(* warm-serve's costliest request kind: SPH1-1 on its m = 200 Fig-5 pair
   under label shingles (the first draw of that workload's stream) *)
let fig5_m200_request =
  lazy
    (let rng = Random.State.make [| 5; 300; 0 |] in
     let g1, pool = G.paper_pattern ~rng ~m:200 in
     let g2 = G.paper_data ~rng ~pool ~noise:0.1 g1 in
     served g1 g2 (Phom_sim.Shingle.matrix (D.labels g1) (D.labels g2)))

let synth_instance m =
  let rng = rng () in
  let g1, pool = G.paper_pattern ~rng ~m in
  let g2 = G.paper_data ~rng ~pool ~noise:0.1 g1 in
  let lsim = Labelsim.make ~pool ~seed:17 in
  let mat = Labelsim.matrix lsim g1 g2 in
  Phom.Instance.make ~g1 ~g2 ~mat ~xi:0.75 ()

let inst100 = synth_instance 100

(* a branch and bound that keeps coming back to its depths: SPH1-1 on an
   11-node tree against a 24-node DAG, 77,632 search nodes to the proven
   optimum *)
let tree11x24 =
  Dp_bench.low_tw_instance ~seed:4 ~kind:`Tree ~n1:11 ~n2:24 ~m2:52 ~xi:0.5
    ~weighted:true

(* the tree-decomposition DP on a series-parallel pattern: SPH on a
   14-node SP pattern against a 24-node DAG, and the count of its total
   mappings *)
let sp14x24 =
  Dp_bench.low_tw_instance ~seed:4 ~kind:`Sp ~n1:14 ~n2:24 ~m2:52 ~xi:0.5
    ~weighted:true

let sf_pair =
  let rng = rng () in
  let g1 = G.erdos_renyi ~rng ~n:60 ~m:150 ~labels:(fun i -> "n" ^ string_of_int (i mod 20)) in
  let g2 = G.erdos_renyi ~rng ~n:60 ~m:150 ~labels:(fun i -> "n" ^ string_of_int (i mod 20)) in
  (g1, g2, Phom_sim.Simmat.of_label_equality g1 g2)

let docs =
  let rng = rng () in
  let vocab = Phom_web.Page.vocabulary ~prefix:"w" 200 in
  Array.init 40 (fun _ -> Phom_web.Page.generate ~rng ~vocab ~length:60)

let tests =
  Test.make_grouped ~name:"phom"
    [
      Test.make ~name:"transitive-closure/er-300-1200"
        (Staged.stage (fun () -> ignore (TC.compute er300)));
      Test.make ~name:"transitive-closure/pa-3000"
        (Staged.stage (fun () -> ignore (TC.compute pa3000)));
      Test.make ~name:"catalog-edit/path-3000-del-add"
        (Staged.stage (fun () ->
             let c = Lazy.force path3000_catalog in
             edit c `Del (2998, 2999);
             edit c `Add (2998, 2999)));
      Test.make ~name:"catalog-edit/pa-3000-toggle"
        (Staged.stage (fun () ->
             let c, e = Lazy.force pa3000_toggle in
             edit c `Add e;
             edit c `Del e));
      Test.make ~name:"label-equality/20x3000"
        (Staged.stage (fun () -> ignore (Phom_sim.Simmat.of_label_equality pattern20 pa3000)));
      Test.make ~name:"scc/er-300-1200"
        (Staged.stage (fun () -> ignore (Phom_graph.Scc.compute er300)));
      Test.make ~name:"compMaxCard/synthetic-m100"
        (Staged.stage (fun () -> ignore (Phom.Comp_max_card.run inst100)));
      Test.make ~name:"compMaxCard1-1/synthetic-m100"
        (Staged.stage (fun () -> ignore (Phom.Comp_max_card.run ~injective:true inst100)));
      Test.make ~name:"compMaxSim/synthetic-m100"
        (Staged.stage (fun () -> ignore (Phom.Comp_max_sim.run inst100)));
      Test.make ~name:"compMaxCard/pa3000-p20"
        (Staged.stage (fun () ->
             ignore (Phom.Comp_max_card.run (Lazy.force churn_request ()))));
      Test.make ~name:"compMaxSim1-1/fig5-m200"
        (Staged.stage (fun () ->
             ignore
               (Phom.Comp_max_sim.run ~injective:true (Lazy.force fig5_m200_request ()))));
      (* one decide is a 101-step search of a few tens of µs, too short
         for a steady per-run estimate; a sample times a batch of them *)
      Test.make ~name:"exact-decide/synthetic-m100-x64"
        (Staged.stage (fun () ->
             for _ = 1 to 64 do
               ignore
                 (Phom.Exact.decide
                    ~budget:(Phom_graph.Budget.create ~steps:200_000 ())
                    inst100)
             done));
      (let t, weights = tree11x24 in
       let objective = Phom.Exact.Similarity (Option.get weights) in
       Test.make ~name:"exact-bb/tree-11x24-sph11"
         (Staged.stage (fun () ->
              ignore (Phom.Exact.solve ~injective:true ~objective t))));
      (let t, weights = sp14x24 in
       let objective = Phom.Exact.Similarity (Option.get weights) in
       Test.make ~name:"dp-solve/sp-14x24-sph"
         (Staged.stage (fun () -> ignore (Phom.Dp.solve ~objective t))));
      (* one count fills about half a millisecond of tables, too short for
         a steady estimate; a sample times a batch of them *)
      Test.make ~name:"dp-count/sp-14x24-x8"
        (Staged.stage (fun () ->
             for _ = 1 to 8 do
               ignore (Phom.Dp.count (fst sp14x24))
             done));
      Test.make ~name:"simulation/synthetic-m100"
        (Staged.stage (fun () ->
             ignore
               (Phom_baselines.Simulation.of_simmat
                  ~mat:inst100.Phom.Instance.mat ~xi:0.75
                  inst100.Phom.Instance.g1 inst100.Phom.Instance.g2)));
      (let g1, g2, mat = sf_pair in
       Test.make ~name:"sf-factorized/er-60"
         (Staged.stage (fun () -> ignore (SF.flood ~impl:SF.Factorized ~init:mat g1 g2))));
      (let g1, g2, mat = sf_pair in
       Test.make ~name:"sf-edge-pairs/er-60"
         (Staged.stage (fun () -> ignore (SF.flood ~impl:SF.Edge_pairs ~init:mat g1 g2))));
      Test.make ~name:"shingle-matrix/40x40-docs"
        (Staged.stage (fun () -> ignore (Phom_sim.Shingle.matrix docs docs)));
      (let small = synth_instance 25 in
       Test.make ~name:"naive-product/synthetic-m25"
         (Staged.stage (fun () -> ignore (Phom.Naive.max_card small))));
    ]

let run () =
  Util.heading "Micro-benchmarks (bechamel, ns per run)";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  ignore (Lazy.force path3000_catalog);
  ignore (Lazy.force pa3000_toggle);
  List.iter (fun r -> ignore (Lazy.force r ())) [ churn_request; fig5_m200_request ];
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> e
        | _ -> nan
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan
      in
      rows :=
        [ name; Printf.sprintf "%.0f" estimate; Printf.sprintf "%.4f" r2 ] :: !rows)
    results;
  let sorted = List.sort compare !rows in
  Util.table [ "benchmark"; "ns/run"; "r²" ] sorted
