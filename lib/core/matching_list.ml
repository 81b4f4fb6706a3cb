module Int_map = Map.Make (Int)

(* [nodes.(0 .. len - 1)] ascending; node [nodes.(i)] has good set
   [rows.(i).(0 .. sizes.(i) - 1)], ascending. Steps shrink rows in place.
   A position whose row empties stays, with size 0, until such dead
   positions outnumber the [live] ones; [tidy] then drops them, so a scan
   costs at most twice the live nodes and a step moves nothing else. *)
type t = {
  mutable len : int;
  mutable live : int;
  nodes : int array;
  rows : int array array;
  sizes : int array;
}

let make nodes rows =
  let len = Array.length nodes in
  { len; live = len; nodes; rows; sizes = Array.map Array.length rows }

let sorted_row row =
  let r = Array.copy row in
  Array.sort Int.compare r;
  let k = ref 0 in
  Array.iter
    (fun u ->
      if !k = 0 || r.(!k - 1) <> u then begin
        r.(!k) <- u;
        incr k
      end)
    r;
  if !k = Array.length r then r else Array.sub r 0 !k

let of_candidates cands =
  let nodes =
    Array.of_seq
      (Seq.filter
         (fun v -> Array.length cands.(v) > 0)
         (Seq.init (Array.length cands) Fun.id))
  in
  make nodes (Array.map (fun v -> sorted_row cands.(v)) nodes)

let of_pairs pairs =
  let by_node =
    List.fold_left
      (fun m (v, u) ->
        Int_map.update v (fun us -> Some (u :: Option.value us ~default:[])) m)
      Int_map.empty pairs
    |> Int_map.bindings |> Array.of_list
  in
  make (Array.map fst by_node)
    (Array.map (fun (_, us) -> sorted_row (Array.of_list us)) by_node)

(* the live positions, ascending *)
let live_positions h =
  let out = Array.make h.live 0 and k = ref 0 in
  for i = 0 to h.len - 1 do
    if h.sizes.(i) > 0 then begin
      out.(!k) <- i;
      incr k
    end
  done;
  out

let copy h =
  let pos = live_positions h in
  make
    (Array.map (fun i -> h.nodes.(i)) pos)
    (Array.map (fun i -> Array.sub h.rows.(i) 0 h.sizes.(i)) pos)

let is_empty h = h.live = 0
let size h = h.live

let nb_pairs h =
  let n = ref 0 in
  for i = 0 to h.len - 1 do
    n := !n + h.sizes.(i)
  done;
  !n

(* index of [x] in [a.(0 .. n - 1)] (ascending), or -1 *)
let search (a : int array) n x =
  let lo = ref 0 and hi = ref n and found = ref (-1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let y = a.(mid) in
    if y = x then begin
      found := mid;
      lo := !hi
    end
    else if y < x then lo := mid + 1
    else hi := mid
  done;
  !found

(* [v]'s position, live or dead, or -1 *)
let find h v = search h.nodes h.len v
let mem h v = match find h v with -1 -> false | i -> h.sizes.(i) > 0

let good h v =
  match find h v with -1 -> [||] | i -> Array.sub h.rows.(i) 0 h.sizes.(i)

let nodes h = Array.to_list (Array.map (fun i -> h.nodes.(i)) (live_positions h))

let fold f h acc =
  let acc = ref acc in
  for i = 0 to h.len - 1 do
    for j = 0 to h.sizes.(i) - 1 do
      acc := f h.nodes.(i) h.rows.(i).(j) !acc
    done
  done;
  !acc

(* drops the dead positions once they outnumber the live ones *)
let tidy h =
  if h.len - h.live > h.live then begin
    let k = ref 0 in
    for i = 0 to h.len - 1 do
      if h.sizes.(i) > 0 then begin
        h.nodes.(!k) <- h.nodes.(i);
        h.rows.(!k) <- h.rows.(i);
        h.sizes.(!k) <- h.sizes.(i);
        incr k
      end
    done;
    h.len <- !k
  end

(* row [i] keeps its first [n] elements *)
let shrink h i n =
  if n = 0 && h.sizes.(i) > 0 then h.live <- h.live - 1;
  h.sizes.(i) <- n

(* delete row [i]'s element at index [j] *)
let delete_at h i j =
  let row = h.rows.(i) and n = h.sizes.(i) in
  Array.blit row (j + 1) row j (n - j - 1);
  shrink h i (n - 1)

let remove_pairs h pairs =
  List.iter
    (fun (v, u) ->
      match find h v with
      | -1 -> ()
      | i -> (
          match search h.rows.(i) h.sizes.(i) u with
          | -1 -> ()
          | j -> delete_at h i j))
    pairs;
  tidy h

(* the segments moved so far, each one node's moved candidates, ascending;
   one node can own several (a 2-cycle through [v], or trim then the
   capacity step), and they are disjoint *)
type moved = { mutable segs : (int * int array) list }

let widest h =
  if h.live = 0 then invalid_arg "Matching_list.widest: empty list";
  let best = ref 0 and best_size = ref 0 in
  for i = 0 to h.len - 1 do
    let n = h.sizes.(i) in
    if n > !best_size then begin
      best := i;
      best_size := n
    end
  done;
  let i = !best in
  let row = h.rows.(i) and n = h.sizes.(i) in
  (h.nodes.(i), if n = Array.length row then row else Array.sub row 0 n)

(* moves row [i]'s elements satisfying [bad] to [moved]; the rest close
   up in place *)
let move h moved i bad =
  let row = h.rows.(i) and n = h.sizes.(i) in
  let k = ref 0 in
  for j = 0 to n - 1 do
    if bad row.(j) then incr k
  done;
  if !k > 0 then begin
    let out = Array.make !k 0 and kept = ref 0 and k = ref 0 in
    for j = 0 to n - 1 do
      let u = row.(j) in
      if bad u then begin
        out.(!k) <- u;
        incr k
      end
      else begin
        row.(!kept) <- u;
        incr kept
      end
    done;
    shrink h i !kept;
    moved.segs <- (h.nodes.(i), out) :: moved.segs
  end

let take h v ~keep =
  let moved = { segs = [] } in
  (match find h v with
  | -1 -> ()
  | i ->
      move h moved i (fun u -> u <> keep);
      shrink h i 0);
  moved

let prune h moved v bad =
  match find h v with -1 -> () | i -> move h moved i bad

let prune_target h moved u =
  for i = 0 to h.len - 1 do
    let row = h.rows.(i) and n = h.sizes.(i) in
    if n > 0 && row.(0) <= u && u <= row.(n - 1) then
      match search row n u with
      | -1 -> ()
      | j ->
          delete_at h i j;
          moved.segs <- (h.nodes.(i), [| u |]) :: moved.segs
  done

let finish h moved =
  tidy h;
  let segs =
    List.fold_left
      (fun acc (v, a) ->
        match acc with
        | (w, b) :: rest when v = w ->
            let r = Array.append a b in
            Array.sort Int.compare r;
            (v, r) :: rest
        | _ -> (v, a) :: acc)
      []
      (List.stable_sort (fun (v, _) (w, _) -> Int.compare w v) moved.segs)
    |> Array.of_list
  in
  make (Array.map fst segs) (Array.map snd segs)
