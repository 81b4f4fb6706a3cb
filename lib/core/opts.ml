module D = Phom_graph.Digraph
module BM = Phom_graph.Bitmatrix
module Simmat = Phom_sim.Simmat
module Components = Phom_graph.Components
module Condensation = Phom_graph.Condensation
module TC = Phom_graph.Transitive_closure

let matchable_nodes (t : Instance.t) =
  let cands = Instance.candidates t in
  List.filter
    (fun v -> Array.length cands.(v) > 0)
    (List.init (D.n t.g1) Fun.id)

let best_candidate (t : Instance.t) v =
  let cands = Instance.candidates t in
  match Array.to_list cands.(v) with
  | [] -> None
  | u :: _ -> Some u (* rows are sorted by decreasing similarity *)

let partitioned algo (t : Instance.t) =
  let solve_group group =
    match group with
    | [ v ] -> (
        match best_candidate t v with None -> [] | Some u -> [ (v, u) ])
    | _ ->
        let g1c, old_of_new = D.induced t.g1 group in
        let mat_c =
          Simmat.restrict t.mat ~rows:old_of_new
            ~cols:(Array.init (D.n t.g2) Fun.id)
        in
        let sub =
          Instance.make ~tc2:t.tc2 ~g1:g1c ~g2:t.g2 ~mat:mat_c ~xi:t.xi ()
        in
        List.map (fun (v, u) -> (old_of_new.(v), u)) (algo sub old_of_new)
  in
  Mapping.normalize
    (List.concat_map solve_group (Components.of_subset t.g1 (matchable_nodes t)))

type compressed = {
  orig : Instance.t;
  sub : Instance.t;
  cond : Condensation.t;
  capacities : int Matching_list.Int_map.t;
}

let compress (t : Instance.t) =
  let cond = Condensation.compress t.g2 in
  let count = D.n cond.Condensation.graph in
  let mat' =
    Simmat.of_fun ~n1:(D.n t.g1) ~n2:count (fun v c ->
        List.fold_left
          (fun acc u -> Float.max acc (Simmat.get t.mat v u))
          0. cond.Condensation.members.(c))
  in
  let sub =
    Instance.make ~g1:t.g1 ~g2:cond.Condensation.graph ~mat:mat' ~xi:t.xi ()
  in
  let capacities =
    Array.to_seq (Array.mapi (fun c ms -> (c, List.length ms)) cond.Condensation.members)
    |> Matching_list.Int_map.of_seq
  in
  { orig = t; sub; cond; capacities }

(* Maximum bipartite matching (Kuhn's augmenting paths) of G1 nodes to the
   eligible members of one clique. *)
let assign_within_clique (t : Instance.t) members vs =
  let members = Array.of_list members in
  let eligible v =
    let out = ref [] in
    Array.iteri
      (fun j u -> if Simmat.get t.mat v u >= t.xi then out := (j, Simmat.get t.mat v u) :: !out)
      members;
    (* try high-similarity members first *)
    List.sort (fun (_, a) (_, b) -> compare b a) !out |> List.map fst
  in
  let owner = Array.make (Array.length members) (-1) in
  let assignment = Hashtbl.create 16 in
  let rec augment v visited =
    List.exists
      (fun j ->
        if visited.(j) then false
        else begin
          visited.(j) <- true;
          if owner.(j) < 0 || augment owner.(j) visited then begin
            owner.(j) <- v;
            Hashtbl.replace assignment v members.(j);
            true
          end
          else false
        end)
      (eligible v)
  in
  List.iter (fun v -> ignore (augment v (Array.make (Array.length members) false))) vs;
  assignment

let decompress ?(injective = false) c mapping =
  let mat = c.orig.Instance.mat and xi = c.orig.Instance.xi in
  let members = c.cond.Condensation.members in
  if not injective then
    Mapping.normalize
      (List.filter_map
         (fun (v, comp) ->
           let best = ref (-1) and best_sim = ref neg_infinity in
           List.iter
             (fun u ->
               let s = Simmat.get mat v u in
               if s >= xi && s > !best_sim then begin
                 best := u;
                 best_sim := s
               end)
             members.(comp);
           if !best < 0 then None else Some (v, !best))
         mapping)
  else begin
    (* group by clique, run a bipartite assignment inside each *)
    let by_comp = Hashtbl.create 16 in
    List.iter
      (fun (v, comp) ->
        Hashtbl.replace by_comp comp
          (v :: Option.value ~default:[] (Hashtbl.find_opt by_comp comp)))
      mapping;
    let out = ref [] in
    Hashtbl.iter
      (fun comp vs ->
        let assignment = assign_within_clique c.orig members.(comp) (List.rev vs) in
        Hashtbl.iter (fun v u -> out := (v, u) :: !out) assignment)
      by_comp;
    Mapping.normalize !out
  end

let with_compression ?injective algo t =
  let c = compress t in
  decompress ?injective c (algo c.sub)
