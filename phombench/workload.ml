(* The four served workloads: the inputs each one generates from its seed,
   and the request streams the closed loop sends. Every request is a pure
   function of (workload, seed, stream, position), so a timed run, the
   traced replay and the oracle all agree on what was asked.

   The graphs, the matrices and each stream's cycle of requests come from
   a fixed instance seed; the run seed picks where in their cycles the
   streams start, the same point for both. A seed therefore never picks a
   workload's speed: every seed sends the same cycle of requests, in the
   same interleaving, entered at another point. (Streams entered at
   different points would interleave differently, and a solve's cost
   depends on the request before it on the same pair.)

   Why each workload exists is written down in README.md next to this
   file; the sizes below are the ones that document justifies. *)

module D = Phom_graph.Digraph
module G = Phom_graph.Generators
module Simmat = Phom_sim.Simmat
module Api = Phom.Api

type sim = Shingles | Equality | Mat of string

type query = {
  problem : Api.problem option;  (** [None] is a [count] *)
  g1 : string;
  g2 : string;
  sim : sim;
  xi : float;
  exact : bool;  (** [--algorithm exact]; otherwise the direct algorithm *)
  phase : int;
      (** toggle phase of [g2] when the request runs (edit-stream); the
          answer is a function of the query and this phase *)
}

type op =
  | Query of query
  | Toggle of { graph : string; add : bool; v : int; w : int; edges_after : int }

type step = { line : string; op : op }

type t = {
  name : string;
  cache_mb : int;
  state_dir : bool;  (** run phomd with [--state-dir] (durable edits) *)
  graphs : (string * D.t) list;  (** catalog name → graph, loaded in order *)
  mats : (string * Simmat.t) list;
  pools : (string * (int * int) array) list;
      (** edit-stream: per data graph, the edges its edits toggle, in order *)
  warmup : step list;  (** run once at set-up, before the timed window *)
  lead_in : step list;
      (** run after set-up and before the window, untimed: takes the
          daemon's state to where the run seed starts the streams *)
  stream : conn:int -> int -> step;  (** the [i]-th request of stream [conn] (0 or 1) *)
  period : int;
      (** every [period] consecutive requests of {!nth} are the same work in
          another order: one whole cycle of both streams *)
}

let names = [ "warm-serve"; "cache-churn"; "exact-tier"; "edit-stream" ]
let problems = [| Api.CPH; Api.CPH11; Api.SPH; Api.SPH11 |]

(* the xi a request line carries, read back exactly as the daemon parses it *)
let xi_of x = float_of_string (Printf.sprintf "%.2f" x)

let line_of_query q =
  let sim =
    match q.sim with
    | Shingles -> "--sim shingles"
    | Equality -> "--sim equality"
    | Mat m -> "--mat " ^ m
  in
  match q.problem with
  | None -> Printf.sprintf "count %s %s %s --xi %.2f" q.g1 q.g2 sim q.xi
  | Some p ->
      Printf.sprintf "solve %s %s %s %s --xi %.2f%s"
        (Phom_server.Protocol.problem_token p)
        q.g1 q.g2 sim q.xi
        (if q.exact then " --algorithm exact" else "")

let query_step q = { line = line_of_query q; op = Query q }

let query ?(exact = false) ?(phase = 0) ?problem ~sim ~xi g1 g2 =
  { problem; g1; g2; sim; xi = xi_of xi; exact; phase }

let rng seed tag = Random.State.make [| seed; tag |]

(* the seed every workload's graphs and matrices are drawn from *)
let instance_seed = 5

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* where in a cycle of [len] the streams start, for the run seed *)
let start ~seed ~tag len = Random.State.int (rng seed tag) len

(* a fixed permutation of each stream's [items] (both of one length),
   cycled from the start the run seed picks *)
let cycled ~seed ~tag items =
  let len = Array.length items.(0) in
  let perms = Array.mapi (fun c xs -> shuffle (rng instance_seed (tag + c)) xs) items in
  let first = start ~seed ~tag len in
  fun ~conn i -> perms.(conn).((first + i) mod len)

(* a Section-6 pattern/data pair: m nodes and 4m edges, data derived by
   subdividing and decorating the pattern at the given noise *)
let fig5_draw ~seed ~tag ~m k =
  let rng = Random.State.make [| seed; tag + m; k |] in
  let g1, pool = G.paper_pattern ~rng ~m in
  (g1, G.paper_data ~rng ~pool ~noise:0.1 g1)

(* budget steps of the four direct solves the workloads send for a pair *)
let direct_steps (g1, g2) =
  let mat = Phom_sim.Shingle.matrix (D.labels g1) (D.labels g2) in
  let t = Phom.Instance.make ~g1 ~g2 ~mat ~xi:0.5 () in
  let b = Phom_graph.Budget.create () in
  Array.iter (fun p -> ignore (Api.solve_within ~budget:b p t)) problems;
  Phom_graph.Budget.steps_used b

(* the direct algorithms need one greedy round on most random pairs of a
   size and two or three on some, and the largest pair sets a workload's
   speed; so that a seed does not pick the speed, five pairs are drawn and
   the one whose solves take the fewest budget steps is kept — the common
   one-round case *)
let fig5_pair ~seed ~tag ~m =
  let draws =
    List.init 5 (fun k ->
        let p = fig5_draw ~seed ~tag ~m k in
        (direct_steps p, p))
  in
  snd (List.hd (List.sort (fun (a, _) (b, _) -> compare a b) draws))

(* ---- warm-serve ---- *)

let warm_serve ~seed =
  let ms = [ 25; 50; 100; 200 ] in
  let pairs = List.map (fun m -> (m, fig5_pair ~seed:instance_seed ~tag:100 ~m)) ms in
  let combos =
    Array.of_list
      (List.concat_map
         (fun m ->
           Array.to_list
             (Array.map
                (fun p ->
                  query ~problem:p ~sim:Shingles ~xi:0.5
                    (Printf.sprintf "p%d" m) (Printf.sprintf "d%d" m))
                problems))
         ms)
  in
  let next = cycled ~seed ~tag:110 [| combos; combos |] in
  {
    name = "warm-serve";
    cache_mb = 256;
    state_dir = false;
    graphs =
      List.concat_map
        (fun (m, (g1, g2)) ->
          [ (Printf.sprintf "p%d" m, g1); (Printf.sprintf "d%d" m, g2) ])
        pairs;
    mats = [];
    pools = [];
    warmup = Array.to_list (Array.map query_step combos);
    lead_in = [];
    stream = (fun ~conn i -> query_step (next ~conn i));
    period = 2 * Array.length combos;
  }

(* ---- cache-churn ---- *)

let churn_graphs = 8

let cache_churn ~seed =
  let data =
    List.init churn_graphs (fun j ->
        let rng = rng instance_seed (200 + j) in
        ( Printf.sprintf "d%d" j,
          G.preferential_attachment ~rng ~n:3000 ~out:3 ~labels:(fun _ ->
              G.label_name (Random.State.int rng 100)) ))
  in
  (* m = 20 draws labels from the same 100-label pool as the data graphs *)
  let patterns =
    List.init churn_graphs (fun i ->
        (Printf.sprintf "p%d" i, fst (G.paper_pattern ~rng:(rng instance_seed (220 + i)) ~m:20)))
  in
  let combos =
    Array.of_list
      (List.concat_map
         (fun (p, _) ->
           List.map
             (fun (d, _) -> query ~problem:Api.CPH ~sim:Equality ~xi:0.5 p d)
             data)
         patterns)
  in
  (* each stream takes half the patterns against every data graph, so a
     block of both streams' cycles is every pair once *)
  let half = Array.length combos / 2 in
  let next = cycled ~seed ~tag:240 [| Array.sub combos 0 half; Array.sub combos half half |] in
  {
    name = "cache-churn";
    cache_mb = 2;
    state_dir = false;
    graphs = patterns @ data;
    mats = [];
    pools = [];
    warmup =
      List.init churn_graphs (fun j ->
          query_step
            (query ~problem:Api.CPH ~sim:Equality ~xi:0.5 (Printf.sprintf "p%d" j)
               (Printf.sprintf "d%d" j)));
    lead_in = [];
    stream = (fun ~conn i -> query_step (next ~conn i));
    period = Array.length combos;
  }

(* ---- exact-tier ---- *)

(* graded similarities: label agreement sets the base, a random grade on
   top spreads candidate rows over several thresholds *)
let graded ~rng g1 g2 =
  Simmat.of_fun ~n1:(D.n g1) ~n2:(D.n g2) (fun v u ->
      let base = if D.label g1 v = D.label g2 u then 0.55 else 0.25 in
      let x = base +. (0.15 *. float_of_int (Random.State.int rng 4)) in
      Float.min 1. (Float.round (x *. 100.) /. 100.))

type shape = Tree of int | Sp of int | Ktree of { n : int; k : int; min_width : int }

let exact_patterns =
  [
    Tree 11;
    Sp 10;
    Ktree { n = 10; k = 3; min_width = 0 };
    Ktree { n = 9; k = 6; min_width = 5 };
  ]

(* the exact tier's cost is dominated by the 1-1 DP→B&B fallback, whose
   search size swings by three orders of magnitude between random
   instances (most random 11-node trees blow past 200k steps). Each pattern
   slot redraws until the budget steps of its four exact solves (a
   deterministic count) land in this band. The run seed orders the requests
   and walks the count grid. *)
let steps_band = (60_000, 120_000)

let exact_steps g1 g2 mat =
  let t = Phom.Instance.make ~g1 ~g2 ~mat ~xi:0.5 () in
  let hi = snd steps_band in
  let b = Phom_graph.Budget.create ~steps:hi () in
  Array.iter
    (fun p ->
      if not (Phom_graph.Budget.exhausted b) then
        ignore (Api.solve_within ~algorithm:Api.Exact_bb ~budget:b p t))
    problems;
  if Phom_graph.Budget.exhausted b then None else Some (Phom_graph.Budget.steps_used b)

let exact_pair ~seed idx shape =
  let rng = rng seed (300 + idx) in
  let labels = [| "A"; "B"; "C" |] in
  let lbl _ = labels.(Random.State.int rng (Array.length labels)) in
  let rec pattern () =
    match shape with
    | Tree n -> G.random_tree ~rng ~n ~labels:lbl
    | Sp n -> G.series_parallel ~rng ~n ~labels:lbl
    | Ktree { n; k; min_width } ->
        (* a partial k-tree wide enough to leave the DP route: redraw until
           the greedy decomposition the router measures is wide *)
        let g = G.random_ktree ~rng ~n ~k ~keep:0.8 ~labels:lbl () in
        if Phom_treedecomp.Treedecomp.width g >= min_width then g
        else pattern ()
  in
  let rec draw tries =
    let g1 = pattern () in
    let g2 = G.random_dag ~rng ~n:24 ~m:52 ~labels:lbl in
    let mat = graded ~rng g1 g2 in
    match exact_steps g1 g2 mat with
    | Some s when s >= fst steps_band -> (g1, g2, mat)
    | _ when tries >= 500 -> failwith "exact-tier: no instance in the steps band"
    | _ -> draw (tries + 1)
  in
  draw 1

(* counts draw xi from this grid so most of them compute: each connection
   walks its own half of it *)
let count_grid = Array.init 40 (fun i -> xi_of (0.40 +. (0.01 *. float_of_int i)))

let exact_tier ~seed =
  let pairs =
    List.mapi (fun i s -> (i, s, exact_pair ~seed:instance_seed i s)) exact_patterns
  in
  let nm fmt i = Printf.sprintf fmt i in
  let solve i p =
    query ~exact:true ~problem:p ~sim:(Mat (nm "m%d" i)) ~xi:0.5 (nm "t%d" i)
      (nm "x%d" i)
  in
  let solves =
    List.concat_map (fun (i, _, _) -> List.map (solve i) (Array.to_list problems)) pairs
  in
  (* a cycle is every solve once plus one count per pattern; a count slot
     is `Count i`, resolved to a grid xi by the cycle number *)
  let slots =
    Array.of_list
      (List.map (fun q -> `Solve q) solves
      @ List.map (fun (i, _, _) -> `Count i) pairs)
  in
  let len = Array.length slots in
  let perms = Array.init 2 (fun c -> shuffle (rng instance_seed (310 + c)) slots) in
  let first = start ~seed ~tag:310 len in
  let stream ~conn i =
    let k = first + i in
    match perms.(conn).(k mod len) with
    | `Solve q -> query_step q
    | `Count p ->
        let cycle = k / len in
        let xi = count_grid.(((2 * cycle) + conn) mod Array.length count_grid) in
        query_step (query ~sim:(Mat (nm "m%d" p)) ~xi (nm "t%d" p) (nm "x%d" p))
  in
  {
    name = "exact-tier";
    cache_mb = 256;
    state_dir = false;
    graphs =
      List.concat_map (fun (i, _, (g1, g2, _)) -> [ (nm "t%d" i, g1); (nm "x%d" i, g2) ]) pairs;
    mats = List.map (fun (i, _, (_, _, m)) -> (nm "m%d" i, m)) pairs;
    pools = [];
    warmup = List.map query_step solves;
    lead_in = [];
    stream;
    period = 2 * len;
  }

(* ---- edit-stream ---- *)

let pool_size = 8

(* the toggle sequence over a pool of [P] absent edges: add them all in
   order, then delete them in the same order. Phase [k] (edits applied
   mod 2P) therefore fixes the graph exactly, the graph never strays more
   than P edges from its loaded state, and the sequence is stationary. *)
let toggle pool j =
  let p = Array.length pool in
  let k = j mod (2 * p) in
  if k < p then (true, pool.(k)) else (false, pool.(k - p))

(* pool edges present at phase [k] *)
let present pool k =
  let p = Array.length pool in
  let k = k mod (2 * p) in
  if k <= p then Array.sub pool 0 k else Array.sub pool (k - p) (2 * p - k)

let graph_at g pool k = D.add_edges g (Array.to_list (present pool k))

let edit_pool ~rng g =
  let n = D.n g in
  let chosen = Hashtbl.create 16 in
  let rec draw acc =
    if List.length acc = pool_size then Array.of_list (List.rev acc)
    else
      let v = Random.State.int rng n and w = Random.State.int rng n in
      if v = w || D.has_edge g v w || Hashtbl.mem chosen (v, w) then draw acc
      else begin
        Hashtbl.replace chosen (v, w) ();
        draw ((v, w) :: acc)
      end
  in
  draw []

let edit_stream ~seed =
  let ms = [| 50; 100; 150; 200 |] in
  let pairs = Array.map (fun m -> fig5_pair ~seed:instance_seed ~tag:400 ~m) ms in
  let pools = Array.mapi (fun i (_, g2) -> edit_pool ~rng:(rng instance_seed (450 + i)) g2) pairs in
  (* the toggle phase every pair's stream starts at; the lead-in takes the
     pairs there *)
  let first = start ~seed ~tag:460 (2 * pool_size) in
  let pname i = Printf.sprintf "ep%d" ms.(i) and dname i = Printf.sprintf "ed%d" ms.(i) in
  (* the j-th visit of pair [i]: toggle j, then re-solve at the new phase *)
  let visit i j =
    let add, (v, w) = toggle pools.(i) j in
    let phase = (j + 1) mod (2 * pool_size) in
    let edges_after = D.nb_edges (snd pairs.(i)) + Array.length (present pools.(i) phase) in
    ( { line = Printf.sprintf "%s %s %d %d" (if add then "addedge" else "deledge") (dname i) v w;
        op = Toggle { graph = dname i; add; v; w; edges_after } },
      query_step
        (query ~phase ~problem:problems.(j mod 4) ~sim:Shingles ~xi:0.5 (pname i) (dname i)) )
  in
  let visits js =
    List.concat
      (List.init 4 (fun i ->
           List.concat_map
             (fun j ->
               let e, s = visit i j in
               [ e; s ])
             (js i)))
  in
  (* each stream owns two pairs *)
  let stream ~conn i =
    let r = i / 2 in
    let pair = (2 * (r mod 2)) + conn in
    let edit, solve = visit pair (first + (r / 2)) in
    if i mod 2 = 0 then edit else solve
  in
  {
    name = "edit-stream";
    cache_mb = 256;
    state_dir = true;
    graphs =
      List.concat
        (List.init 4 (fun i -> [ (pname i, fst pairs.(i)); (dname i, snd pairs.(i)) ]));
    mats = [];
    pools = List.init 4 (fun i -> (dname i, pools.(i)));
    (* one full toggle cycle per pair, so every phase's artifacts get
       built and the pairs are back at phase 0 *)
    warmup = visits (fun _ -> List.init (2 * pool_size) Fun.id);
    lead_in = visits (fun _ -> List.init first (fun j -> (2 * pool_size) + j));
    stream;
    (* a stream visits its two pairs alternately, edit then solve, and a
       pair repeats after a whole toggle cycle *)
    period = 2 * 2 * 2 * (2 * pool_size);
  }

let make ~seed = function
  | "warm-serve" -> warm_serve ~seed
  | "cache-churn" -> cache_churn ~seed
  | "exact-tier" -> exact_tier ~seed
  | "edit-stream" -> edit_stream ~seed
  | w -> invalid_arg ("unknown workload " ^ w ^ " (expected " ^ String.concat ", " names ^ ")")

(* the [i]-th request a run sends: both streams interleaved *)
let nth t i = t.stream ~conn:(i mod 2) (i / 2)
