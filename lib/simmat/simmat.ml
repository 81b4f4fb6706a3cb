type t = { rows : int; cols : int; data : float array }

let create ~n1 ~n2 =
  if n1 < 0 || n2 < 0 then invalid_arg "Simmat.create";
  { rows = n1; cols = n2; data = Array.make (max 1 (n1 * n2)) 0. }

let n1 m = m.rows
let n2 m = m.cols

let byte_size m =
  (* record + float-array payload, for byte-accounted artifact caches *)
  (3 + 1 + Array.length m.data) * (Sys.word_size / 8)

let check m v u =
  if v < 0 || v >= m.rows || u < 0 || u >= m.cols then
    invalid_arg "Simmat: index out of bounds"

let get m v u =
  check m v u;
  m.data.((v * m.cols) + u)

let set m v u x =
  check m v u;
  if not (x >= 0. && x <= 1.) then invalid_arg "Simmat.set: value outside [0,1]";
  m.data.((v * m.cols) + u) <- x

let clamp x = if x < 0. then 0. else if x > 1. then 1. else x

let of_fun ~n1 ~n2 f =
  let m = create ~n1 ~n2 in
  for v = 0 to n1 - 1 do
    for u = 0 to n2 - 1 do
      m.data.((v * n2) + u) <- clamp (f v u)
    done
  done;
  m

let of_label_sim f g1 g2 =
  let module D = Phom_graph.Digraph in
  of_fun ~n1:(D.n g1) ~n2:(D.n g2) (fun v u -> f (D.label g1 v) (D.label g2 u))

let of_label_equality g1 g2 =
  let module D = Phom_graph.Digraph in
  let m = create ~n1:(D.n g1) ~n2:(D.n g2) in
  (* label → the pattern nodes carrying it, so each data node writes only
     its 1.0 entries *)
  let rows = Hashtbl.create (max 1 m.rows) in
  for v = 0 to m.rows - 1 do
    Hashtbl.add rows (D.label g1 v) v
  done;
  for u = 0 to m.cols - 1 do
    List.iter
      (fun v -> m.data.((v * m.cols) + u) <- 1.)
      (Hashtbl.find_all rows (D.label g2 u))
  done;
  m

let candidates m ~xi =
  Array.init m.rows (fun v ->
      let cand = ref [] in
      for u = m.cols - 1 downto 0 do
        let s = m.data.((v * m.cols) + u) in
        if s >= xi then cand := (u, s) :: !cand
      done;
      let arr = Array.of_list !cand in
      Array.sort
        (fun (u1, s1) (u2, s2) ->
          if s1 <> s2 then compare s2 s1 else compare u1 u2)
        arr;
      Array.map fst arr)

let candidate_count m ~xi =
  let c = ref 0 in
  Array.iter (fun x -> if x >= xi then incr c) m.data;
  !c

let scale k m =
  { m with data = Array.map (fun x -> clamp (k *. x)) m.data }

let pointwise_max a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Simmat.pointwise_max: dimension mismatch";
  { a with data = Array.init (Array.length a.data) (fun i -> Float.max a.data.(i) b.data.(i)) }

let restrict m ~rows ~cols =
  let out = create ~n1:(Array.length rows) ~n2:(Array.length cols) in
  Array.iteri
    (fun i v ->
      Array.iteri (fun j u -> set out i j (get m v u)) cols)
    rows;
  out

let max_value m = Array.fold_left Float.max 0. m.data

let to_string m =
  let buf = Buffer.create (16 * m.rows * m.cols) in
  Buffer.add_string buf "phs 1\n";
  Buffer.add_string buf (Printf.sprintf "%d %d\n" m.rows m.cols);
  for v = 0 to m.rows - 1 do
    for u = 0 to m.cols - 1 do
      if u > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf (Printf.sprintf "%.6g" m.data.((v * m.cols) + u))
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

(* refuse to allocate a matrix the file cannot plausibly back: a forged
   dimension line like "1000000 1000000" must not OOM the process *)
let max_cells = 100_000_000

let of_string s =
  let err fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  match String.split_on_char '\n' s with
  | header :: dims :: rest -> (
      if String.trim header <> "phs 1" then err "missing 'phs 1' header"
      else
        match String.split_on_char ' ' (String.trim dims) with
        | [ a; b ] -> (
            match (int_of_string_opt a, int_of_string_opt b) with
            | Some n1, Some n2 when n1 > 0 && n2 > 0 && n2 > max_cells / n1 ->
                err "matrix too large (%d x %d; limit %d cells)" n1 n2 max_cells
            | Some n1, Some n2 when n1 >= 0 && n2 >= 0 -> (
                let m = create ~n1 ~n2 in
                let problem = ref None in
                List.iteri
                  (fun v line ->
                    if !problem = None && v < n1 then begin
                      let cells =
                        String.split_on_char ' ' (String.trim line)
                        |> List.filter (fun c -> c <> "")
                      in
                      if List.length cells <> n2 then
                        problem := Some (Printf.sprintf "row %d: expected %d values" v n2)
                      else
                        List.iteri
                          (fun u cell ->
                            match float_of_string_opt cell with
                            | Some x when x >= 0. && x <= 1. -> set m v u x
                            | Some _ ->
                                problem :=
                                  Some (Printf.sprintf "row %d: value outside [0,1]" v)
                            | None ->
                                problem := Some (Printf.sprintf "row %d: bad float" v))
                          cells
                    end)
                  rest;
                if
                  n2 > 0
                  && List.length (List.filter (fun l -> String.trim l <> "") rest)
                     < n1
                then err "missing rows"
                else match !problem with Some e -> Error e | None -> Ok m)
            | _ -> err "bad dimension line")
        | _ -> err "bad dimension line")
  | _ -> err "truncated input"

let save path m =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string m))

let default_max_bytes = 64 * 1024 * 1024

(* mirrors Graph_io.load: refuse oversized files before reading them, and
   report every failure as "<file>: <what>" (parse errors keep their line
   from of_string) *)
let load ?(max_bytes = default_max_bytes) path =
  try
    if Sys.is_directory path then Error (path ^ ": is a directory")
    else
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let len = in_channel_length ic in
        if len > max_bytes then
          Error
            (Printf.sprintf "%s: file too large (%d bytes; limit %d bytes)" path
               len max_bytes)
        else
          Result.map_error
            (fun m -> path ^ ": " ^ m)
            (of_string (really_input_string ic len)))
  with
  | Sys_error msg -> Error msg
  | End_of_file -> Error (path ^ ": truncated read")

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for v = 0 to m.rows - 1 do
    for u = 0 to m.cols - 1 do
      Format.fprintf ppf "%.2f " m.data.((v * m.cols) + u)
    done;
    if v < m.rows - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
