"""Semi-supervised overlapping community detection with weak cliques."""

from .cliques import (
    CliqueRecord,
    CliqueSet,
    identify_weak_cliques,
)
from .graph import (
    Cover,
    FormatError,
    Graph,
    SampledLabels,
    SynthConfig,
    load_cover,
    load_edge_list,
    load_features,
    sample_labels,
    synth_graph,
    write_cover,
    write_edge_list,
    write_features,
)
from .metrics import onmi
from .model import (
    AdamState,
    DegenerateProjectionError,
    FusionParams,
    ModelParams,
    adam_step,
    gcn_forward,
    gcn_norm,
    gt_forward,
    init_params,
    loss,
    loss_and_gradients,
    predict,
)
from .pseudo import (
    PseudoConfig,
    binarize,
    construct_pseudo_labels,
    pseudo_coverage,
    refresh_pseudo_labels,
)
from .train import (
    RunReport,
    TrainConfig,
    initial_training,
    refined_training,
    run_pipeline,
)

__version__ = "0.1.0"
