"""adcradio: treat the ADC of a radio-less embedded device as a crude radio.

The toolkit simulates parasitic RF sensitivity of embedded boards, discovers
sensitive (path, configuration, frequency) combinations with an exhaustive
sweep, and decodes OOK transmissions with a lightweight software receiver,
including BER accounting and link-budget arithmetic.
"""

__version__ = "0.1.0"

from .backend import (
    BackendError,
    DutDescriptor,
    GpioMode,
    GpioPull,
    NotConfiguredError,
    OutputType,
    OutputValue,
    PathConfig,
    ReceptionPathId,
    RfSourceError,
    RfStimulus,
    SimulatedRfSource,
    SimulatorBackend,
    StimulusSchedule,
    UnknownPathError,
    UnsupportedSettingError,
)
from .fileio import snr_from_json, snr_to_json
from .protocol import (
    CaptureCommand,
    ConfigureCommand,
    DutProtocolServer,
    IdentifyCommand,
    LoopbackTransport,
    ProtocolError,
    ResetCommand,
    SerialBackend,
    decode_command,
    encode_command,
)
from .receiver import (
    BerReport,
    DemodParams,
    ber,
    demodulate,
    eye_opening,
    ideal_sync_ber_experiment,
    moving_average,
    normalize,
    recover_timing,
    remove_dc,
    slice_bits,
)
from .scenario import (
    Scenario,
    ScenarioError,
    build_rig,
    bundled_scenario_path,
    load_scenario,
    scenario_from_dict,
    transmit,
)
from .signals import (
    BasebandEnvelope,
    BitSequence,
    dbm_to_mw,
    fspl_db,
    generate_bits,
    modulate_ook,
)
from .simulator import (
    AdcConfig,
    AdcTrace,
    BurstSpec,
    CouplingModel,
    DriftSpec,
    Resonance,
    RfChannel,
    SimulatedDut,
    adc_sample,
    coupling_gain,
    detector_output,
)
from .sweep import (
    SensitivityRecord,
    SweepPlan,
    SweepResult,
    block_mean,
    classify_sensitive,
    default_sweep_frequencies,
    enumerate_configs,
    estimate_snr,
    peak_snr,
    recommended_configs,
    run_sweep,
    snr_from_stats,
    spectra_from_records,
)
