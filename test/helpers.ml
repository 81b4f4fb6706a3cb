(* Shared builders, qcheck generators and assertion helpers for the suite. *)

module D = Phom_graph.Digraph
module Bitset = Phom_graph.Bitset
module BM = Phom_graph.Bitmatrix
module TC = Phom_graph.Transitive_closure
module Simmat = Phom_sim.Simmat
module Mapping = Phom.Mapping
module Instance = Phom.Instance

let graph labels edges = D.make ~labels:(Array.of_list labels) ~edges

(* label-equality instance over two graphs, the Fig. 2 setting *)
let eq_instance ?(xi = 0.5) g1 g2 =
  Instance.make ~g1 ~g2 ~mat:(Simmat.of_label_equality g1 g2) ~xi ()

(* a pattern of several weak components and a data graph holding a noisy
   copy of each: a 12-edge paper pattern and three 12-node ER graphs over
   one label pool, joined by disjoint union — the shape the Appendix-B
   partitioning splits *)
let multi_component_pair seed =
  let module G = Phom_graph.Generators in
  let rng = Random.State.make [| seed |] in
  let g0, lpool = G.paper_pattern ~rng ~m:12 in
  let patterns =
    g0
    :: List.init 3 (fun _ ->
           G.erdos_renyi ~rng ~n:12 ~m:48 ~labels:(fun _ ->
               G.label_name (Random.State.int rng lpool.G.nlabels)))
  in
  let datas = List.map (G.paper_data ~rng ~pool:lpool ~noise:0.1) patterns in
  let union gs =
    let labels =
      Array.concat (List.map (fun g -> Array.init (D.n g) (D.label g)) gs)
    in
    let _, edges =
      List.fold_left
        (fun (off, acc) g ->
          ( off + D.n g,
            List.rev_append
              (List.map (fun (v, w) -> (v + off, w + off)) (D.edges g))
              acc ))
        (0, []) gs
    in
    D.make ~labels ~edges
  in
  (union patterns, union datas)

let qtest ?(count = 100) name gen print prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name (QCheck.make ~print gen) prop)

(* ---- generators ---- *)

let small_labels = [| "A"; "B"; "C"; "D" |]

let digraph_gen ?(min_n = 1) ?(max_n = 8) ?(labels = small_labels)
    ?(edge_prob = 0.25) () : D.t QCheck.Gen.t =
 fun st ->
  let n = min_n + Random.State.int st (max_n - min_n + 1) in
  let lbls =
    Array.init n (fun _ -> labels.(Random.State.int st (Array.length labels)))
  in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if Random.State.float st 1.0 < edge_prob then edges := (u, v) :: !edges
    done
  done;
  D.make ~labels:lbls ~edges:!edges

let dag_gen ?(min_n = 1) ?(max_n = 8) ?(labels = small_labels)
    ?(edge_prob = 0.3) () : D.t QCheck.Gen.t =
 fun st ->
  let n = min_n + Random.State.int st (max_n - min_n + 1) in
  let lbls =
    Array.init n (fun _ -> labels.(Random.State.int st (Array.length labels)))
  in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Random.State.float st 1.0 < edge_prob then edges := (u, v) :: !edges
    done
  done;
  D.make ~labels:lbls ~edges:!edges

let print_digraph g = Format.asprintf "%a" D.pp g

(* planted components: cycles of 2–8 nodes (some with chords), singletons
   (some with self-loops) and fans of singletons into one cycle, joined by
   random edges from later blocks to earlier ones (so the planted cycles
   stay the components) and relabelled by a random permutation. These are
   the shapes where the closure's cyclic-successor shortcut and its member
   copy run, which [digraph_gen] rarely makes. *)
let planted_scc_gen ?(max_n = 60) ?(labels = small_labels) () : D.t QCheck.Gen.t =
 fun st ->
  let int k = Random.State.int st k in
  let block = ref [] and edges = ref [] and n = ref 0 and nblocks = ref 0 in
  let fresh k =
    let b = !n in
    n := !n + k;
    block := List.init k (fun _ -> !nblocks) @ !block;
    incr nblocks;
    b
  in
  let cycle () =
    let k = 2 + int 7 in
    let b = fresh k in
    for i = 0 to k - 1 do
      edges := (b + i, b + ((i + 1) mod k)) :: !edges
    done;
    if k > 2 && int 2 = 0 then edges := (b + int k, b + int k) :: !edges;
    (b, k)
  in
  (* each block adds at most 16 nodes *)
  let target = 8 + int (max 1 (max_n - 15)) in
  while !n + 8 <= target do
    match int 3 with
    | 0 -> ignore (cycle ())
    | 1 ->
        let v = fresh 1 in
        if int 2 = 0 then edges := (v, v) :: !edges
    | _ ->
        let b, k = cycle () in
        for _ = 1 to 1 + int 8 do
          let v = fresh 1 in
          edges := (v, b + int k) :: !edges
        done
  done;
  let n = !n in
  let block = Array.of_list (List.rev !block) in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if block.(u) > block.(v) && int 40 = 0 then edges := (u, v) :: !edges
    done
  done;
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = int (i + 1) in
    let x = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- x
  done;
  D.make
    ~labels:(Array.init n (fun _ -> labels.(int (Array.length labels))))
    ~edges:(List.map (fun (u, v) -> (perm.(u), perm.(v))) !edges)

(* random instance: pair of graphs plus a random similarity matrix whose
   entries are snapped to {0, 0.4, 0.8, 1.0} so thresholds bite *)
let instance_gen ?(max_n1 = 6) ?(max_n2 = 8) ?(xi = 0.5) () :
    Instance.t QCheck.Gen.t =
 fun st ->
  let g1 = digraph_gen ~max_n:max_n1 () st in
  let g2 = digraph_gen ~max_n:max_n2 () st in
  let levels = [| 0.; 0.; 0.4; 0.8; 1.0 |] in
  let mat =
    Simmat.of_fun ~n1:(D.n g1) ~n2:(D.n g2) (fun _ _ ->
        levels.(Random.State.int st (Array.length levels)))
  in
  Instance.make ~g1 ~g2 ~mat ~xi ()

let print_instance (t : Instance.t) =
  Format.asprintf "g1=%a@.g2=%a@.mat=%a@.xi=%f" D.pp t.g1 D.pp t.g2 Simmat.pp
    t.mat t.xi

(* ---- assertions ---- *)

let check_valid ?(injective = false) t m =
  Alcotest.(check bool)
    (Format.asprintf "valid %smapping %a" (if injective then "1-1 " else "")
       Mapping.pp m)
    true
    (Instance.is_valid ~injective t m)

let check_mapping = Alcotest.(check (list (pair int int)))

(* the value of the unlabelled series [name] among Prometheus lines, such
   as a [stats] reply's body *)
let metric_value lines name =
  let prefix = name ^ " " in
  match
    List.find_opt
      (fun l ->
        String.length l > String.length prefix
        && String.sub l 0 (String.length prefix) = prefix)
      lines
  with
  | None -> Alcotest.failf "metric %s missing from stats" name
  | Some l ->
      int_of_float
        (float_of_string
           (String.sub l (String.length prefix)
              (String.length l - String.length prefix)))

(* [name] as the registry dumps it now, the line the daemon's [stats] shows.
   The cache probes read the most recently created catalog, so a reading
   speaks for a catalog only while no other has been created since *)
let probe name = metric_value (Phom_obs.Obs.dump_lines ()) name

let contains_substring ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* occurrences of a non-empty needle (non-overlapping) *)
let count_substring ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  if nl = 0 then 0
  else begin
    let count = ref 0 and i = ref 0 in
    while !i + nl <= hl do
      if String.sub haystack !i nl = needle then begin
        incr count;
        i := !i + nl
      end
      else incr i
    done;
    !count
  end
