"""Late-fusion visual relationship scoring over precomputed detections."""

from .datamodel import (
    Box,
    DataError,
    Detection,
    GtObject,
    ImageRecord,
    PredictedTriplet,
    ResolvedTriplet,
    Vocabulary,
    iou,
    load_dataset,
    load_vocabulary,
    save_dataset,
    save_vocabulary,
    union_box,
)
from .fusion import (
    BranchMask,
    FusionModel,
    TrainConfig,
    gt_substitution,
    init_fusion_model,
    load_checkpoint,
    load_predictions,
    pair_logits,
    pair_proposals,
    predict_image,
    save_checkpoint,
    save_predictions,
    train,
)
from .metrics import (
    EvalReport,
    MatchSpec,
    average_precision,
    evaluate,
    oi_score,
    recall_at_k,
    triplet_match,
    vrd_recall,
)
from .semantic import FrequencyTable, fit_frequency, semantic_logits
from .spatial import spatial_feature
from .synth import SynthConfig, bayes_accuracy, generate
from .visual import predicate_feature

__version__ = "0.1.0"
