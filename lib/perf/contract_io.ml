open Json

let expr_to_json expr =
  Json.List
    (List.map
       (fun (mono, coeff) ->
         let pcvs =
           List.concat_map
             (fun (v, e) -> List.init e (fun _ -> String (Pcv.name v)))
             mono
         in
         Obj [ ("coeff", Int coeff); ("pcvs", List pcvs) ])
       (Perf_expr.terms expr))

let result_map f items =
  List.fold_left
    (fun acc item ->
      let* acc = acc in
      let* v = f item in
      Ok (v :: acc))
    (Ok []) items
  |> Result.map List.rev

let expr_of_json json =
  let* entries = to_list json in
  let* parsed =
    result_map
      (fun entry ->
        let* coeff = let* c = member "coeff" entry in to_int c in
        let* pcv_json = let* p = member "pcvs" entry in to_list p in
        let* names = result_map to_str pcv_json in
        let* vars =
          try Ok (List.map Pcv.v names)
          with Invalid_argument msg -> Error msg
        in
        Ok (Perf_expr.term coeff vars))
      entries
  in
  Ok (Perf_expr.sum parsed)

let cost_vec_to_json (v : Cost_vec.t) =
  Obj
    (List.map
       (fun metric ->
         (Metric.to_string metric, expr_to_json (Cost_vec.get v metric)))
       Metric.all)

let cost_vec_of_json json =
  let* ic = let* j = member "IC" json in expr_of_json j in
  let* ma = let* j = member "MA" json in expr_of_json j in
  let* cycles = let* j = member "cycles" json in expr_of_json j in
  Ok (Cost_vec.make ~ic ~ma ~cycles)

let entry_to_json (e : Contract.entry) =
  Obj
    [
      ("class", String e.Contract.class_name);
      ("description", String e.Contract.description);
      ("paths", Int e.Contract.path_count);
      ("cost", cost_vec_to_json e.Contract.cost);
    ]

let entry_of_json json =
  let* class_name = let* j = member "class" json in to_str j in
  let* description = let* j = member "description" json in to_str j in
  let* path_count = let* j = member "paths" json in to_int j in
  let* cost = let* j = member "cost" json in cost_vec_of_json j in
  Ok (Contract.entry ~class_name ~description ~path_count cost)

let contract_to_json (c : Contract.t) =
  Obj
    [
      ("nf", String c.Contract.nf);
      ("entries", List (List.map entry_to_json c.Contract.entries));
    ]

let contract_of_json json =
  let* nf = let* j = member "nf" json in to_str j in
  let* entry_json = let* j = member "entries" json in to_list j in
  let* entries = result_map entry_of_json entry_json in
  try Ok (Contract.make ~nf entries)
  with Invalid_argument msg -> Error msg

let ds_contract_to_json (c : Ds_contract.t) =
  Obj
    [
      ("ds_kind", String c.Ds_contract.ds_kind);
      ("method", String c.Ds_contract.meth);
      ( "branches",
        List
          (List.map
             (fun (b : Ds_contract.branch) ->
               Obj
                 [
                   ("tag", String b.Ds_contract.tag);
                   ("note", String b.Ds_contract.note);
                   ("cost", cost_vec_to_json b.Ds_contract.cost);
                 ])
             c.Ds_contract.branches) );
    ]

let ds_contract_of_json json =
  let* ds_kind = let* j = member "ds_kind" json in to_str j in
  let* meth = let* j = member "method" json in to_str j in
  let* branch_json = let* j = member "branches" json in to_list j in
  let* branches =
    result_map
      (fun b ->
        let* tag = let* j = member "tag" b in to_str j in
        let* note = let* j = member "note" b in to_str j in
        let* cost = let* j = member "cost" b in cost_vec_of_json j in
        Ok (Ds_contract.branch ~tag ~note cost))
      branch_json
  in
  try Ok (Ds_contract.make ~ds_kind ~meth branches)
  with Invalid_argument msg -> Error msg

let contract_to_string ?indent c = to_string ?indent (contract_to_json c)

let contract_of_string s =
  let* json = of_string s in
  contract_of_json json

let write_contract ~path c = write_file ~path (contract_to_json c)

let read_contract ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      contract_of_string (really_input_string ic (in_channel_length ic)))
