"""Circuit camouflaging toolkit: AIG VAE interpolation, covert-gate repair,
and SAT-attack evaluation."""

from .aig import (AigGraph, AigerParseError, NodeType, TensorTriple,
                  extract_cone_tree, from_tensors, normalize, pad_to_match,
                  parse_aiger, random_tree, to_tensors, write_aiger)
from .attack import (DipTrace, KeyedNetlist, dip_attack, equivalence_check,
                     key_is_correct, keyize_netlist, make_ll_baseline,
                     make_oracle, tseitin_encode)
from .camouflage import (CamouflagedNetlist, area_overhead, camouflage_pipeline,
                         camouflage_skeleton, decode_skeleton, fix_lookup,
                         interpolate, threshold_filter)
from .cnf import CnfFormula, SatResult, sat_solve
from .covert import CovertConfig, CovertGateKind, CovertInstance
from .evaluation import (BinStat, CorrelationReport, export_gnn_dataset,
                         ged_lsd_study, latent_distance, pearson_r,
                         random_covert_insertion)
from .gatelevel import Circuit, Gate, from_aig, miter, simplify, simulate
from .ged import graph_edit_distance
from .vae import (Hyperparams, LatentCode, VaeParams, decode, encode, load_vae,
                  save_vae, train)

__version__ = "0.1.0"
