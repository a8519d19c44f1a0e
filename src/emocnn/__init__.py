"""Character-level CNN for 5-way emotion classification of short dialogues."""

from .labels import EmotionLabel, LABEL_NAMES, N_CLASSES
from .tensor import Prng, gaussian_init
from .text import (
    ALPHABET_RANGES,
    ALPHABET_SIZE,
    SEQUENCE_LENGTH,
    DataError,
    RawDialogue,
    alphabet_ordinal,
    encode_dataset,
    encode_dialogue,
    load_dataset,
    load_stop_words,
    normalize_width,
    remap,
    remove_stop_words,
    split_dataset,
)
from .network import (
    CONV_GROUPS,
    VARIANTS,
    Model,
    NetworkConfig,
    build_model,
    compute_augmentation_size,
    forward,
    loss_and_grads,
    predict,
    predict_batch,
)
from .training import (
    AdamState,
    NumericalFault,
    TrainConfig,
    TrainLog,
    adam_step,
    make_batches,
    train,
)
from .evaluation import (
    EvalReport,
    confusion_matrix,
    evaluate,
    export_curve,
    parse_curve,
    report_from_predictions,
    sweep_configs,
    sweep_params,
)
from .checkpoint import (
    CheckpointConfigError,
    CheckpointError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointValueError,
    CheckpointVersionError,
    load_checkpoint,
    save_checkpoint,
)

__version__ = "0.1.0"
