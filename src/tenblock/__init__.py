"""Block-partitioned Tucker/TT/QTT compression for gappy gridded
spatiotemporal fields."""

from .completion import (
    ObservationMask,
    SvpParams,
    SvpResult,
    random_mask,
    svp_complete,
    update_rank,
)
from .formats import FormatError, read_gsa, read_gst, write_gsa, write_gst
from .partition import (
    BlockIndex,
    PartitionResult,
    find_largest_block,
    greedy_partition,
    is_valid_block,
    kernel_backend,
    pow2_partition,
    temporal_split,
)
from .pipeline import (
    BlockRecord,
    CompressedArchive,
    CompressionReport,
    compress_dataset,
    cr_metrics,
    decompress_dataset,
    render_report,
    render_sweep,
    sweep_splits,
)
from .synth import SynthSpec, synth
from .tensor_core import (
    GappyTensor4,
    chebyshev_norm,
    frobenius_norm,
    unfold,
)
from .tt import (
    QttFactorization,
    TTFactorization,
    qtt_compress,
    qtt_factorize_modes,
    tt_compress_abs,
    tt_storage_count,
    ttsvd,
)
from .tucker import (
    TuckerFactorization,
    hosvd,
    tucker_compress_abs,
    tucker_storage_count,
)

__version__ = "0.1.0"
