"""Multi-agent Kripke models with subjective local states, agency modalities
(Certainly-an-agent / Possibly-an-agent), and ontological update operators."""

from .formulas import (And, Believes, CertainAgent, Formula, Implies, Not, Or,
                       ParseError, PossibleAgent, Prop, parse, unparse)
from .frames import (FramePropertyReport, check_properties, classify_model,
                     is_kd45, is_s5)
from .model import (KripkeModel, ModelError, StateId, prune_unreachable,
                    reachable_from, replicate_with_lineage, subjective_relation)
from .semantics import holds_at, holds_for_agent, holds_globally, presence_at, sat
from .serialize import (DocumentError, doc_to_model, dumps_dot, dumps_model,
                        export_dot, load_model, save_model)
from .updates import (UpdateResult, UpdateSpec, apply_update, lie_offline,
                      lie_online, update_offline, update_online)

__all__ = [
    "And", "Believes", "CertainAgent", "Formula", "Implies", "Not", "Or",
    "ParseError", "PossibleAgent", "Prop", "parse", "unparse",
    "FramePropertyReport", "check_properties", "classify_model", "is_kd45", "is_s5",
    "KripkeModel", "ModelError", "StateId", "prune_unreachable", "reachable_from",
    "replicate_with_lineage", "subjective_relation",
    "holds_at", "holds_for_agent", "holds_globally", "presence_at", "sat",
    "DocumentError", "doc_to_model", "dumps_dot", "dumps_model", "export_dot",
    "load_model", "save_model",
    "UpdateResult", "UpdateSpec", "apply_update", "lie_offline", "lie_online",
    "update_offline", "update_online",
]
